"""The static back end: compiling ordinary C functions to target code.

tcc compiles the non-dynamic parts of a program with lcc's code generation
(the paper's baseline) or, for performance-critical code, via emitted C
compiled by an optimizing compiler (their GNU CC numbers).  This module
provides both quality levels over the same lowering used by the dynamic
back ends:

* ``"lcc"`` — straightforward lowering, linear-scan allocation, no IR
  optimization, no peephole: the quality baseline all dynamic-code ratios
  are measured against, as the paper prescribes;
* ``"gcc"`` — IR constant/copy propagation + dead-code elimination,
  graph-coloring allocation, peephole: the optimizing-compiler yardstick.
"""

from __future__ import annotations

from repro.core.lowering import CodeGen, EmitCtx, MemLV, RegLV, cls_of, width_of
from repro.errors import CodegenError
from repro.frontend import cast
from repro.icode.backend import IcodeBackend

#: Optimization-level presets: (regalloc, optimize_ir, use_peephole).
OPT_LEVELS = {
    "lcc": ("linear", False, False),
    "gcc": ("color", True, True),
}


def compile_static_function(machine, cost, fn: cast.FuncDef, global_env,
                            intern_string, options,
                            do_link: bool = True) -> int:
    """Compile one C function at ``options.static_opt``; return its entry
    address.

    ``global_env`` maps ``id(decl)`` of globals to their ``MemLV``.
    The function is registered in the code segment's symbol table under its
    own name.
    """
    if fn.body is None:
        raise CodegenError(f"cannot compile extern function {fn.name!r}")
    regalloc, optimize_ir, use_peephole = OPT_LEVELS[options.static_opt]
    backend = IcodeBackend(
        machine, cost, regalloc=regalloc, optimize_ir=optimize_ir,
        use_peephole=use_peephole, verify=options.verify,
        analysis=options.analysis,
    )
    ctx = EmitCtx(machine, cost, backend, fn.ty.ret, intern_string, options)
    ctx.env.update(global_env)

    _bind_parameters(ctx, backend, machine, fn)
    _bind_locals(ctx, backend, machine, fn)

    gen = CodeGen(ctx)
    gen.gen_stmt(fn.body)
    return backend.install(name=fn.name, do_link=do_link)


def _bind_parameters(ctx, backend, machine, fn: cast.FuncDef) -> None:
    n_int = n_float = 0
    for param in fn.params:
        cls = cls_of(param.ty)
        index = n_float if cls == "f" else n_int
        if cls == "f":
            n_float += 1
        else:
            n_int += 1
        storage = backend.alloc_reg(cls)
        backend.bind_param(storage, index, cls)
        if param.needs_memory:
            # The parameter's address is taken somewhere: give it a memory
            # home and copy the incoming value there.
            addr = machine.memory.alloc(max(param.ty.size, 4),
                                        max(param.ty.align, 4))
            backend.store(storage, None, addr, width_of(param.ty))
            ctx.env[id(param)] = MemLV(None, addr, width_of(param.ty), cls)
        else:
            ctx.env[id(param)] = RegLV(storage, cls)


def _bind_locals(ctx, backend, machine, fn: cast.FuncDef) -> None:
    """Assign storage to every local declared anywhere in the body.

    Scalars live in virtual registers; arrays and address-taken locals get
    statically allocated target memory (this reproduction's stand-in for
    stack frames; documented in DESIGN.md — the compiled subset has no
    recursive memory-local functions)."""
    for node in cast.walk(fn.body):
        if not isinstance(node, cast.DeclStmt):
            continue
        for decl in node.decls:
            if decl.owner_tick is not None:
                continue  # dynamic locals are the CGF's concern
            ty = decl.ty
            if ty.is_array():
                addr = machine.memory.alloc(ty.size, max(ty.base.align, 4))
                decl.address = addr
                ctx.env[id(decl)] = MemLV(None, addr, width_of(ty.base),
                                          cls_of(ty.base))
            elif decl.needs_memory:
                addr = machine.memory.alloc(max(ty.size, 4), max(ty.align, 4))
                decl.address = addr
                ctx.env[id(decl)] = MemLV(None, addr, width_of(ty), cls_of(ty))
            else:
                cls = cls_of(ty)
                storage = backend.alloc_reg(cls)
                backend.note_storage(storage)
                ctx.env[id(decl)] = RegLV(storage, cls)


def build_global_env(global_cells) -> dict:
    """Build the lowering environment for globals from interpreter cells."""
    env = {}
    for decl_id, cell in global_cells.items():
        addr = getattr(cell, "addr", None)
        if addr is None:
            continue  # cspec/vspec globals live host-side only
        ty = cell.ty
        elem = ty.base if ty.is_array() else ty
        env[decl_id] = MemLV(None, addr, width_of(elem), cls_of(elem))
    return env
