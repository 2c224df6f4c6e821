"""MiniC -> mini-ISA code generator.

Conventions (shared with hand-written assembly workloads):

* r0..r3 — argument/return registers (caller writes just before the
  call; r0 carries the return value).  Never live across calls.
* r4..r29 — expression temporaries, allocated stack-wise per
  expression; live temporaries are caller-saved (push/pop) around
  calls, so all inter-procedural dataflow goes through r0..r3 and
  memory — exactly the flows DIFT must see.
* r30 — frame pointer (callee-saved in the prologue/epilogue).
* r31 (sp) — stack pointer; locals live at ``fp - 1 - slot``.

Globals are assigned static addresses from ``GLOBAL_BASE`` upward;
a global *array* name evaluates to its base address (a compile-time
constant), while a global *scalar* name evaluates to its value, so
pointers obtained from ``alloc()`` can be stored in globals and indexed
with ``p[i]``.

Every emitted instruction is stamped with its MiniC source line, which
fault-location reports surface as "statement" identities, mirroring how
the paper maps instruction addresses back to source statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.builder import FunctionBuilder, Label, ProgramBuilder
from ..isa.instructions import Opcode
from ..isa.program import Program
from ..vm.memory import GLOBAL_BASE
from . import ast_nodes as ast
from .errors import CompileError
from .parser import parse

ARG_REGS = (0, 1, 2, 3)
TEMP_FIRST, TEMP_LAST = 4, 29
FP = 30

_BINOPS = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "==": Opcode.SEQ,
    "!=": Opcode.SNE,
    "<": Opcode.SLT,
    "<=": Opcode.SLE,
    ">": Opcode.SGT,
    ">=": Opcode.SGE,
}

#: builtin name -> (min args, max args)
BUILTINS = {
    "in": (1, 1),
    "out": (2, 2),
    "alloc": (1, 1),
    "free": (1, 1),
    "spawn": (2, 2),
    "join": (1, 1),
    "lock": (1, 1),
    "unlock": (1, 1),
    "barrier_init": (2, 2),
    "barrier_wait": (1, 1),
    "assert": (1, 1),
    "fail": (1, 1),
    "halt": (0, 0),
    "fnid": (1, 1),
    "icall": (1, 2),
}


@dataclass
class CompiledProgram:
    """A linked program plus the front end's symbol information."""

    program: Program
    source: str
    #: global name -> (address, size in cells).
    globals: dict[str, tuple[int, int]]
    consts: dict[str, int]
    #: global instruction index -> MiniC source line.
    line_map: dict[int, int] = field(default_factory=dict)

    def line_of(self, pc: int) -> int:
        """MiniC line that produced instruction ``pc`` (0 if unknown)."""
        return self.line_map.get(pc, 0)

    def pcs_of_line(self, line: int) -> list[int]:
        return [pc for pc, ln in self.line_map.items() if ln == line]


class _FuncCtx:
    """Per-function emission state."""

    def __init__(self, fb: FunctionBuilder, decl: ast.FuncDecl):
        self.fb = fb
        self.decl = decl
        self.slots: dict[str, int] = {}
        self.free_temps = list(range(TEMP_LAST, TEMP_FIRST - 1, -1))
        self.live_temps: list[int] = []
        self.loop_stack: list[tuple[Label, Label]] = []  # (continue, break)
        self.epilogue: Label = fb.label("epilogue")
        self.cur_line = decl.line

    def alloc_temp(self) -> int:
        if not self.free_temps:
            raise CompileError("expression too complex (out of temporaries)", self.cur_line)
        reg = self.free_temps.pop()
        self.live_temps.append(reg)
        return reg

    def free_temp(self, reg: int) -> None:
        self.live_temps.remove(reg)
        self.free_temps.append(reg)


class Compiler:
    def __init__(self, module: ast.Module):
        self.module = module
        self.builder = ProgramBuilder()
        self.consts: dict[str, int] = {}
        self.globals: dict[str, tuple[int, int]] = {}
        self.funcs: dict[str, ast.FuncDecl] = {}
        self._collect_symbols()

    # -- symbol collection ------------------------------------------------
    def _collect_symbols(self) -> None:
        addr = GLOBAL_BASE
        names: set[str] = set(BUILTINS)
        for c in self.module.consts:
            if c.name in names:
                raise CompileError(f"duplicate symbol {c.name!r}", c.line)
            names.add(c.name)
            self.consts[c.name] = c.value
        for g in self.module.globals:
            if g.name in names:
                raise CompileError(f"duplicate symbol {g.name!r}", g.line)
            names.add(g.name)
            self.globals[g.name] = (addr, g.size)
            addr += g.size
        for f in self.module.functions:
            if f.name in names:
                raise CompileError(f"duplicate symbol {f.name!r}", f.line)
            names.add(f.name)
            if len(f.params) > len(ARG_REGS):
                raise CompileError(
                    f"function {f.name!r} has more than {len(ARG_REGS)} parameters", f.line
                )
            self.funcs[f.name] = f

    # -- compilation ------------------------------------------------------
    def compile(self, entry: str = "main") -> CompiledProgram:
        if entry not in self.funcs:
            raise CompileError(f"missing entry function {entry!r}")
        for decl in self.module.functions:
            self._compile_func(decl)
        program = self.builder.build(entry=entry)
        line_map = {
            instr.index: int(instr.source) for instr in program.code if instr.source.isdigit()
        }
        return CompiledProgram(
            program=program,
            source="",
            globals=dict(self.globals),
            consts=dict(self.consts),
            line_map=line_map,
        )

    def _compile_func(self, decl: ast.FuncDecl) -> None:
        fb = self.builder.function(decl.name, num_params=len(decl.params))
        ctx = _FuncCtx(fb, decl)
        # Assign slots: params first, then every var declared in the body.
        for p in decl.params:
            if p in ctx.slots:
                raise CompileError(f"duplicate parameter {p!r}", decl.line)
            ctx.slots[p] = len(ctx.slots)
        self._collect_locals(decl.body, ctx)
        frame = len(ctx.slots)
        # Prologue: save fp, establish frame, spill params to their slots.
        self._emit(ctx, Opcode.PUSH, FP)
        self._emit(ctx, Opcode.MOV, FP, 31)
        if frame:
            self._emit(ctx, Opcode.ADDI, 31, 31, -frame)
        for i, p in enumerate(decl.params):
            self._emit(ctx, Opcode.STORE, ARG_REGS[i], FP, -(1 + ctx.slots[p]))
        self._gen_block(decl.body, ctx)
        # Implicit `return 0` + epilogue carry the declaration's line so
        # they are never confused with the body's last statement.
        ctx.cur_line = decl.line
        self._emit(ctx, Opcode.LI, 0, 0)
        fb.place(ctx.epilogue)
        self._emit(ctx, Opcode.MOV, 31, FP)
        self._emit(ctx, Opcode.POP, FP)
        self._emit(ctx, Opcode.RET)
        if ctx.live_temps:  # pragma: no cover - compiler invariant
            raise CompileError(f"temp leak in {decl.name}: {ctx.live_temps}", decl.line)

    def _collect_locals(self, stmts: list, ctx: _FuncCtx) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.VarDecl):
                if stmt.name in ctx.slots:
                    raise CompileError(f"duplicate variable {stmt.name!r}", stmt.line)
                if stmt.name in self.consts or stmt.name in self.globals:
                    raise CompileError(
                        f"local {stmt.name!r} shadows a global/const", stmt.line
                    )
                ctx.slots[stmt.name] = len(ctx.slots)
            elif isinstance(stmt, ast.If):
                self._collect_locals(stmt.then, ctx)
                self._collect_locals(stmt.otherwise, ctx)
            elif isinstance(stmt, ast.While):
                self._collect_locals(stmt.body, ctx)
            elif isinstance(stmt, ast.For):
                if stmt.init is not None:
                    self._collect_locals([stmt.init], ctx)
                self._collect_locals(stmt.body, ctx)

    # -- emission helpers ------------------------------------------------------
    def _emit(self, ctx: _FuncCtx, opcode: Opcode, *operands):
        return ctx.fb.emit(opcode, *operands, source=str(ctx.cur_line))

    # -- statements ----------------------------------------------------------------
    def _gen_block(self, stmts: list, ctx: _FuncCtx) -> None:
        for stmt in stmts:
            self._gen_stmt(stmt, ctx)

    def _gen_stmt(self, stmt: ast.Stmt, ctx: _FuncCtx) -> None:
        ctx.cur_line = stmt.line
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                reg = self._gen_expr(stmt.init, ctx)
                self._emit(ctx, Opcode.STORE, reg, FP, -(1 + ctx.slots[stmt.name]))
                ctx.free_temp(reg)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt, ctx)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt, ctx)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt, ctx)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt, ctx)
        elif isinstance(stmt, ast.Break):
            if not ctx.loop_stack:
                raise CompileError("break outside loop", stmt.line)
            self._emit(ctx, Opcode.JMP, ctx.loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not ctx.loop_stack:
                raise CompileError("continue outside loop", stmt.line)
            self._emit(ctx, Opcode.JMP, ctx.loop_stack[-1][0])
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                reg = self._gen_expr(stmt.value, ctx)
                self._emit(ctx, Opcode.MOV, 0, reg)
                ctx.free_temp(reg)
            else:
                self._emit(ctx, Opcode.LI, 0, 0)
            self._emit(ctx, Opcode.JMP, ctx.epilogue)
        elif isinstance(stmt, ast.ExprStmt):
            reg = self._gen_expr(stmt.expr, ctx)
            if reg >= 0:
                ctx.free_temp(reg)
        else:  # pragma: no cover - exhaustive
            raise CompileError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def _gen_assign(self, stmt: ast.Assign, ctx: _FuncCtx) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            name = target.ident
            if name in self.consts:
                raise CompileError(f"cannot assign to const {name!r}", stmt.line)
            value = self._gen_expr(stmt.value, ctx)
            if name in ctx.slots:
                self._emit(ctx, Opcode.STORE, value, FP, -(1 + ctx.slots[name]))
            elif name in self.globals:
                addr, size = self.globals[name]
                if size > 1:
                    raise CompileError(
                        f"cannot assign to array {name!r} (index it instead)", stmt.line
                    )
                base = ctx.alloc_temp()
                self._emit(ctx, Opcode.LI, base, addr)
                self._emit(ctx, Opcode.STORE, value, base, 0)
                ctx.free_temp(base)
            else:
                raise CompileError(f"undeclared variable {name!r}", stmt.line)
            ctx.free_temp(value)
        else:  # Index
            base = self._gen_expr(target.base, ctx)
            index = self._gen_expr(target.index, ctx)
            self._emit(ctx, Opcode.ADD, base, base, index)
            ctx.free_temp(index)
            value = self._gen_expr(stmt.value, ctx)
            self._emit(ctx, Opcode.STORE, value, base, 0)
            ctx.free_temp(value)
            ctx.free_temp(base)

    def _gen_if(self, stmt: ast.If, ctx: _FuncCtx) -> None:
        cond = self._gen_expr(stmt.cond, ctx)
        l_else = ctx.fb.label("else")
        l_end = ctx.fb.label("endif")
        self._emit(ctx, Opcode.BRZ, cond, l_else)
        ctx.free_temp(cond)
        self._gen_block(stmt.then, ctx)
        if stmt.otherwise:
            self._emit(ctx, Opcode.JMP, l_end)
            ctx.fb.place(l_else)
            self._gen_block(stmt.otherwise, ctx)
            ctx.fb.place(l_end)
        else:
            ctx.fb.place(l_else)

    def _gen_while(self, stmt: ast.While, ctx: _FuncCtx) -> None:
        l_cond = ctx.fb.label("while_cond")
        l_end = ctx.fb.label("while_end")
        ctx.fb.place(l_cond)
        cond = self._gen_expr(stmt.cond, ctx)
        self._emit(ctx, Opcode.BRZ, cond, l_end)
        ctx.free_temp(cond)
        ctx.loop_stack.append((l_cond, l_end))
        self._gen_block(stmt.body, ctx)
        ctx.loop_stack.pop()
        self._emit(ctx, Opcode.JMP, l_cond)
        ctx.fb.place(l_end)

    def _gen_for(self, stmt: ast.For, ctx: _FuncCtx) -> None:
        if stmt.init is not None:
            self._gen_stmt(stmt.init, ctx)
        l_cond = ctx.fb.label("for_cond")
        l_step = ctx.fb.label("for_step")
        l_end = ctx.fb.label("for_end")
        ctx.fb.place(l_cond)
        if stmt.cond is not None:
            ctx.cur_line = stmt.line
            cond = self._gen_expr(stmt.cond, ctx)
            self._emit(ctx, Opcode.BRZ, cond, l_end)
            ctx.free_temp(cond)
        ctx.loop_stack.append((l_step, l_end))
        self._gen_block(stmt.body, ctx)
        ctx.loop_stack.pop()
        ctx.fb.place(l_step)
        if stmt.step is not None:
            self._gen_stmt(stmt.step, ctx)
        self._emit(ctx, Opcode.JMP, l_cond)
        ctx.fb.place(l_end)

    # -- expressions --------------------------------------------------------------
    def _gen_expr(self, expr: ast.Expr, ctx: _FuncCtx) -> int:
        """Emit code computing ``expr``; returns the temp holding the value
        (-1 for void builtins in statement position)."""
        ctx.cur_line = expr.line or ctx.cur_line
        if isinstance(expr, ast.Num):
            reg = ctx.alloc_temp()
            self._emit(ctx, Opcode.LI, reg, expr.value)
            return reg
        if isinstance(expr, ast.Name):
            return self._gen_name(expr, ctx)
        if isinstance(expr, ast.Unary):
            reg = self._gen_expr(expr.operand, ctx)
            self._emit(ctx, Opcode.NEG if expr.op == "-" else Opcode.NOT, reg, reg)
            return reg
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._gen_shortcircuit(expr, ctx)
            left = self._gen_expr(expr.left, ctx)
            right = self._gen_expr(expr.right, ctx)
            self._emit(ctx, _BINOPS[expr.op], left, left, right)
            ctx.free_temp(right)
            return left
        if isinstance(expr, ast.Index):
            base = self._gen_expr(expr.base, ctx)
            index = self._gen_expr(expr.index, ctx)
            self._emit(ctx, Opcode.ADD, base, base, index)
            ctx.free_temp(index)
            self._emit(ctx, Opcode.LOAD, base, base, 0)
            return base
        if isinstance(expr, ast.Call):
            if expr.name in BUILTINS:
                return self._gen_builtin(expr, ctx)
            return self._gen_call(expr, ctx)
        raise CompileError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _gen_name(self, expr: ast.Name, ctx: _FuncCtx) -> int:
        name = expr.ident
        reg = ctx.alloc_temp()
        if name in self.consts:
            self._emit(ctx, Opcode.LI, reg, self.consts[name])
        elif name in ctx.slots:
            self._emit(ctx, Opcode.LOAD, reg, FP, -(1 + ctx.slots[name]))
        elif name in self.globals:
            addr, size = self.globals[name]
            self._emit(ctx, Opcode.LI, reg, addr)
            if size == 1:  # scalar: load the value; arrays evaluate to base
                self._emit(ctx, Opcode.LOAD, reg, reg, 0)
        elif name in self.funcs:
            raise CompileError(
                f"bare function name {name!r}; use fnid({name}) for a function id", expr.line
            )
        else:
            raise CompileError(f"undeclared variable {name!r}", expr.line)
        return reg

    def _gen_shortcircuit(self, expr: ast.Binary, ctx: _FuncCtx) -> int:
        result = self._gen_expr(expr.left, ctx)
        l_short = ctx.fb.label("sc_short")
        l_end = ctx.fb.label("sc_end")
        if expr.op == "&&":
            self._emit(ctx, Opcode.BRZ, result, l_short)
        else:
            self._emit(ctx, Opcode.BR, result, l_short)
        right = self._gen_expr(expr.right, ctx)
        # Normalize the surviving operand to 0/1.
        self._emit(ctx, Opcode.NOT, right, right)
        self._emit(ctx, Opcode.NOT, result, right)
        ctx.free_temp(right)
        self._emit(ctx, Opcode.JMP, l_end)
        ctx.fb.place(l_short)
        self._emit(ctx, Opcode.LI, result, 0 if expr.op == "&&" else 1)
        ctx.fb.place(l_end)
        return result

    def _gen_call(self, expr: ast.Call, ctx: _FuncCtx) -> int:
        decl = self.funcs.get(expr.name)
        if decl is None:
            raise CompileError(f"call to undefined function {expr.name!r}", expr.line)
        if len(expr.args) != len(decl.params):
            raise CompileError(
                f"{expr.name}() expects {len(decl.params)} argument(s), got {len(expr.args)}",
                expr.line,
            )
        arg_regs = [self._gen_expr(a, ctx) for a in expr.args]
        saved = [t for t in ctx.live_temps if t not in arg_regs]
        for t in saved:
            self._emit(ctx, Opcode.PUSH, t)
        for i, t in enumerate(arg_regs):
            self._emit(ctx, Opcode.MOV, ARG_REGS[i], t)
        for t in arg_regs:
            ctx.free_temp(t)
        self._emit(ctx, Opcode.CALL, expr.name)
        result = ctx.alloc_temp()
        self._emit(ctx, Opcode.MOV, result, 0)
        for t in reversed(saved):
            self._emit(ctx, Opcode.POP, t)
        return result

    def _const_value(self, expr: ast.Expr, what: str) -> int:
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Name) and expr.ident in self.consts:
            return self.consts[expr.ident]
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_value(expr.operand, what)
        raise CompileError(f"{what} must be a compile-time constant", expr.line)

    def _func_name_arg(self, expr: ast.Expr, what: str) -> str:
        if isinstance(expr, ast.Name) and expr.ident in self.funcs:
            return expr.ident
        raise CompileError(f"{what} must name a function", expr.line)

    def _gen_builtin(self, expr: ast.Call, ctx: _FuncCtx) -> int:
        name, args = expr.name, expr.args
        lo, hi = BUILTINS[name]
        if not lo <= len(args) <= hi:
            raise CompileError(
                f"{name}() expects {lo}{'' if lo == hi else f'..{hi}'} argument(s), "
                f"got {len(args)}",
                expr.line,
            )
        if name == "in":
            chan = self._const_value(args[0], "in() channel")
            reg = ctx.alloc_temp()
            self._emit(ctx, Opcode.IN, reg, chan)
            return reg
        if name == "out":
            chan = self._const_value(args[1], "out() channel")
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.OUT, reg, chan)
            return reg  # out() yields its value, handy for chaining
        if name == "alloc":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.ALLOC, reg, reg)
            return reg
        if name == "free":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.FREE, reg)
            return reg
        if name == "spawn":
            fname = self._func_name_arg(args[0], "spawn() target")
            if len(self.funcs[fname].params) > 1:
                raise CompileError("spawned functions take at most one parameter", expr.line)
            arg = self._gen_expr(args[1], ctx)
            self._emit(ctx, Opcode.SPAWN, arg, fname, arg)
            return arg  # now holds the child tid
        if name == "join":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.JOIN, reg)
            return reg
        if name == "lock":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.LOCK, reg)
            return reg
        if name == "unlock":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.UNLOCK, reg)
            return reg
        if name == "barrier_init":
            rid = self._gen_expr(args[0], ctx)
            rparties = self._gen_expr(args[1], ctx)
            self._emit(ctx, Opcode.BARINIT, rid, rparties)
            ctx.free_temp(rparties)
            return rid
        if name == "barrier_wait":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.BARWAIT, reg)
            return reg
        if name == "assert":
            reg = self._gen_expr(args[0], ctx)
            self._emit(ctx, Opcode.ASSERT, reg)
            return reg
        if name == "fail":
            code = self._const_value(args[0], "fail() code")
            self._emit(ctx, Opcode.FAIL, code)
            reg = ctx.alloc_temp()  # unreachable, but keeps callers uniform
            return reg
        if name == "halt":
            self._emit(ctx, Opcode.HALT)
            reg = ctx.alloc_temp()
            self._emit(ctx, Opcode.LI, reg, 0)
            return reg
        if name == "fnid":
            fname = self._func_name_arg(args[0], "fnid() argument")
            reg = ctx.alloc_temp()
            self._emit(ctx, Opcode.LI, reg, fname)
            return reg
        if name == "icall":
            target = self._gen_expr(args[0], ctx)
            arg = self._gen_expr(args[1], ctx) if len(args) > 1 else None
            saved = [t for t in ctx.live_temps if t != target and t != arg]
            for t in saved:
                self._emit(ctx, Opcode.PUSH, t)
            if arg is not None:
                self._emit(ctx, Opcode.MOV, ARG_REGS[0], arg)
                ctx.free_temp(arg)
            self._emit(ctx, Opcode.ICALL, target)
            self._emit(ctx, Opcode.MOV, target, 0)
            for t in reversed(saved):
                self._emit(ctx, Opcode.POP, t)
            return target
        raise CompileError(f"unhandled builtin {name!r}", expr.line)  # pragma: no cover


def compile_source(source: str, entry: str = "main") -> CompiledProgram:
    """Compile MiniC ``source`` into a linked :class:`CompiledProgram`."""
    module = parse(source)
    compiled = Compiler(module).compile(entry=entry)
    compiled.source = source
    return compiled


def compile_program(source: str, entry: str = "main") -> Program:
    """Convenience wrapper returning just the :class:`Program`."""
    return compile_source(source, entry=entry).program
