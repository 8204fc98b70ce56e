"""A reference interpreter for the simplified C.

Executes analyzed programs directly, for two purposes:

1. it defines the language's semantics precisely (C-like: truncating
   integer division, short-circuit logical operators producing 0/1,
   zero-initialized globals and arrays), and
2. it is the oracle for the mini-C specializer: the residual program must
   compute exactly the same observable state as the original on every
   dynamic input (tested, including property-based).

Execution is bounded by a fuel counter so runaway loops fail fast with
:class:`InterpreterError` instead of hanging the test suite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.lang import astnodes as ast
from repro.analysis.symbols import SymbolTable, resolve


class InterpreterError(Exception):
    """Raised on semantic errors at run time (or fuel exhaustion)."""


class _Return(Exception):
    """Internal control flow for ``return``."""

    def __init__(self, value: Any) -> None:
        self.value = value


def _zero(type_name: str) -> Any:
    return 0.0 if type_name == ast.FLOAT else 0


class Interpreter:
    """Evaluate a program from its ``main`` function."""

    def __init__(
        self,
        program: ast.Program,
        symbols: Optional[SymbolTable] = None,
        fuel: int = 5_000_000,
    ) -> None:
        self.program = program
        self.symbols = symbols or resolve(program)
        #: the step budget this interpreter started with (``fuel`` counts down)
        self.budget = fuel
        self.fuel = fuel
        #: symbol id -> value (arrays are Python lists)
        self.globals: Dict[int, Any] = {}

    # -- public API ----------------------------------------------------------

    def run(
        self, inputs: Optional[Dict[str, Any]] = None, entry: str = "main"
    ) -> Dict[str, Any]:
        """Initialize globals, apply ``inputs``, execute ``entry``.

        Returns the final global state as ``{name: value}`` (arrays as
        lists) — the program's observable behaviour.
        """
        self._init_globals()
        for name, value in (inputs or {}).items():
            symbol = self.symbols.globals.get(name)
            if symbol is None:
                raise InterpreterError(f"no global named {name!r}")
            if symbol.is_array:
                current = self.globals[symbol.symbol_id]
                if len(value) > len(current):
                    raise InterpreterError(
                        f"input for {name!r} exceeds its declared size"
                    )
                current[: len(value)] = list(value)
            else:
                self.globals[symbol.symbol_id] = value
        self.call(entry, [])
        return self.global_state()

    def global_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        for name, symbol in self.symbols.globals.items():
            value = self.globals[symbol.symbol_id]
            state[name] = list(value) if symbol.is_array else value
        return state

    def call(self, name: str, args: List[Any]) -> Any:
        """Invoke a function by name with evaluated arguments."""
        func = self.symbols.functions.get(name)
        if func is None:
            raise InterpreterError(f"no function named {name!r}")
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{name} expects {len(func.params)} arguments, got {len(args)}"
            )
        frame: Dict[int, Any] = {}
        for param, value in zip(func.params, args):
            frame[param.symbol.symbol_id] = value
        try:
            self._exec(func.body, frame)
        except _Return as ret:
            return ret.value
        return None

    # -- initialization ----------------------------------------------------------

    def _init_globals(self) -> None:
        self.globals.clear()
        for decl in self.program.globals:
            symbol = decl.symbol
            if symbol.is_array:
                self.globals[symbol.symbol_id] = [
                    _zero(decl.type) for _ in range(decl.size)
                ]
            elif decl.init is not None:
                self.globals[symbol.symbol_id] = self._eval(decl.init, {})
            else:
                self.globals[symbol.symbol_id] = _zero(decl.type)

    # -- statements -------------------------------------------------------------

    def _burn(self) -> None:
        self.fuel -= 1
        if self.fuel <= 0:
            raise InterpreterError(
                f"fuel exhausted after {self.budget:,} steps (infinite loop, or "
                "a program that needs more: raise the budget with fuel= or "
                "--fuel)"
            )

    def _exec(self, stmt: ast.Stmt, frame: Dict[int, Any]) -> None:
        self._burn()
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                self._exec(inner, frame)
        elif isinstance(stmt, ast.Decl):
            symbol = stmt.symbol
            if symbol.is_array:
                frame[symbol.symbol_id] = [_zero(stmt.type) for _ in range(stmt.size)]
            elif stmt.init is not None:
                frame[symbol.symbol_id] = self._eval(stmt.init, frame)
            else:
                frame[symbol.symbol_id] = _zero(stmt.type)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.expr, frame)
            self._store(stmt.target, value, frame)
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.cond, frame)):
                self._exec(stmt.then, frame)
            elif stmt.orelse is not None:
                self._exec(stmt.orelse, frame)
        elif isinstance(stmt, ast.While):
            while self._truthy(self._eval(stmt.cond, frame)):
                self._burn()
                self._exec(stmt.body, frame)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._exec(stmt.init, frame)
            while stmt.cond is None or self._truthy(self._eval(stmt.cond, frame)):
                self._burn()
                self._exec(stmt.body, frame)
                if stmt.step is not None:
                    self._exec(stmt.step, frame)
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, frame) if stmt.value is not None else None
            raise _Return(value)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, frame)
        else:  # pragma: no cover - parser produces no other statements
            raise InterpreterError(f"cannot execute {stmt!r}")

    def _store(self, target: ast.Expr, value: Any, frame: Dict[int, Any]) -> None:
        if isinstance(target, ast.VarRef):
            store = self._storage_for(target.symbol, frame)
            store[target.symbol.symbol_id] = value
            return
        # IndexRef
        array = self._lookup(target.array.symbol, frame)
        index = self._eval(target.index, frame)
        self._check_index(target, array, index)
        array[index] = value

    # -- expressions --------------------------------------------------------------

    def _storage_for(self, symbol, frame: Dict[int, Any]) -> Dict[int, Any]:
        if symbol.symbol_id in frame:
            return frame
        if symbol.symbol_id in self.globals:
            return self.globals
        # A local declared later in the function but assigned first cannot
        # occur (declaration precedes use by symbol resolution), so:
        return frame

    def _lookup(self, symbol, frame: Dict[int, Any]) -> Any:
        if symbol.symbol_id in frame:
            return frame[symbol.symbol_id]
        if symbol.symbol_id in self.globals:
            return self.globals[symbol.symbol_id]
        raise InterpreterError(
            f"variable {symbol.name!r} used before its declaration executed"
        )

    @staticmethod
    def _truthy(value: Any) -> bool:
        return value != 0

    def _check_index(self, node: ast.Node, array: List[Any], index: Any) -> None:
        if not isinstance(index, int):
            raise InterpreterError(f"line {node.line}: array index must be int")
        if not 0 <= index < len(array):
            raise InterpreterError(
                f"line {node.line}: index {index} out of bounds "
                f"(size {len(array)})"
            )

    def _eval(self, expr: ast.Expr, frame: Dict[int, Any]) -> Any:
        self._burn()
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._lookup(expr.symbol, frame)
        if isinstance(expr, ast.IndexRef):
            array = self._lookup(expr.array.symbol, frame)
            index = self._eval(expr.index, frame)
            self._check_index(expr, array, index)
            return array[index]
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -value
            return 0 if self._truthy(value) else 1
        if isinstance(expr, ast.Binary):
            return self._binary(expr, frame)
        if isinstance(expr, ast.Call):
            args = [self._eval(a, frame) for a in expr.args]
            return self.call(expr.name, args)
        raise InterpreterError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _binary(self, expr: ast.Binary, frame: Dict[int, Any]) -> Any:
        op = expr.op
        if op == "&&":
            if not self._truthy(self._eval(expr.left, frame)):
                return 0
            return 1 if self._truthy(self._eval(expr.right, frame)) else 0
        if op == "||":
            if self._truthy(self._eval(expr.left, frame)):
                return 1
            return 1 if self._truthy(self._eval(expr.right, frame)) else 0
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpreterError(f"line {expr.line}: division by zero")
            if isinstance(left, int) and isinstance(right, int):
                quotient = abs(left) // abs(right)
                return quotient if (left >= 0) == (right >= 0) else -quotient
            return left / right
        if op == "%":
            if right == 0:
                raise InterpreterError(f"line {expr.line}: modulo by zero")
            # C semantics: result has the sign of the dividend.
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        return 1 if left >= right else 0


def run_program(
    source: str, inputs: Optional[Dict[str, Any]] = None, fuel: int = 5_000_000
) -> Dict[str, Any]:
    """Parse, resolve and execute a program; returns the final global state."""
    from repro.analysis.lang.parser import parse

    program = parse(source)
    return Interpreter(program, fuel=fuel).run(inputs)
