#include "workloads/attacks.hpp"

#include "arch/mem_map.hpp"
#include "common/logging.hpp"
#include "ir/builder.hpp"
#include "sim/device.hpp"

namespace lmi {

using namespace ir;
using analysis::AccessVerdict;

const char*
violationCategoryName(ViolationCategory category)
{
    switch (category) {
      case ViolationCategory::GlobalOoB:     return "Global OoB";
      case ViolationCategory::HeapOoB:       return "Heap OoB";
      case ViolationCategory::LocalOoB:      return "Local OoB";
      case ViolationCategory::SharedOoB:     return "Shared OoB";
      case ViolationCategory::IntraOoB:      return "Intra OoB";
      case ViolationCategory::UseAfterFree:  return "UAF";
      case ViolationCategory::UseAfterScope: return "UAS";
      case ViolationCategory::InvalidFree:   return "Invalid free";
      case ViolationCategory::DoubleFree:    return "Double free";
    }
    return "?";
}

bool
isSpatialCategory(ViolationCategory category)
{
    switch (category) {
      case ViolationCategory::GlobalOoB:
      case ViolationCategory::HeapOoB:
      case ViolationCategory::LocalOoB:
      case ViolationCategory::SharedOoB:
      case ViolationCategory::IntraOoB:
        return true;
      default:
        return false;
    }
}

namespace {

IrModule
module(IrFunction f)
{
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

/**
 * malloc(192) pads to a 256 B chunk under the pow2 extent. The attack
 * stores at i32 index 49 (byte 196): past the 192 requested bytes,
 * inside the padding — invisible to any pow2 whole-allocation check.
 */
IrModule
buildIntraPadding(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("intra_padding", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(192), 4);
    b.store(b.gep(p, b.constInt(benign ? 40 : 49)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * A 16 B field carved at byte 64 of a 256 B frame object. The attack
 * indexes element 5 of the 4-element field (byte 84): inside the
 * allocation, outside the field — only sub-K narrowed extents see it.
 */
IrModule
buildSubobjectField(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("subobject_field", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto obj = b.alloca_(256, 4);
    b.store(b.gep(obj, b.constInt(0)), b.constInt(7, Type::i32()));
    auto field = b.fieldPtr(obj, 64, 16);
    b.store(b.gep(field, b.constInt(benign ? 2 : 5)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Store through the original pointer after free() invalidated it. */
IrModule
buildUafInvalidate(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("uaf_invalidate", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    b.free_(p);
    if (!benign)
        b.store(b.gep(p, b.constInt(1)), b.constInt(2, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * Free, allocate again (the device heap hands the chunk straight
 * back), then store through the stale pointer: the classic
 * use-after-free-into-reallocation. The benign twin stores through the
 * fresh pointer instead.
 */
IrModule
buildUafRealloc(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("uaf_realloc", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    b.free_(p);
    auto q = b.malloc_(b.constInt(256), 4);
    b.store(b.gep(q, b.constInt(0)), b.constInt(2, Type::i32()));
    if (!benign)
        b.store(b.gep(p, b.constInt(1)), b.constInt(3, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * An exactly pow2-sized local buffer leaves no padding: index 64 of a
 * 256 B i32 buffer is the textbook one-past-the-end store and every
 * bounds scheme's bread and butter.
 */
IrModule
buildOffByOne(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("off_by_one", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    b.store(b.gep(buf, b.constInt(benign ? 63 : 64)),
            b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * A down-counting store sequence. The benign twin walks indices
 * 3..0; the attack continues the stride below the base (indices
 * -1..-4), so every attack offset is provably negative.
 */
IrModule
buildNegStride(bool benign)
{
    IrFunction f = IrBuilder::makeKernel("neg_stride", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto p = b.malloc_(b.constInt(256), 4);
    const int64_t start = benign ? 3 : -1;
    for (int64_t i = 0; i < 4; ++i)
        b.store(b.gep(p, b.constInt(start - i)),
                b.constInt(i + 1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

// ------------------------------------------------------------------
// Table III kernels
// ------------------------------------------------------------------

/** Kernel: buf[idx] = 1 (i32); one thread. */
IrModule
storeKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "poke", {{"buf", Type::ptr(4)}, {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    b.store(b.gep(b.param(0), b.param(1)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Local-buffer overflow: alloca(size); buf[idx] = 1. */
IrModule
localStoreKernel(uint64_t buf_bytes)
{
    IrFunction f =
        IrBuilder::makeKernel("local_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(buf_bytes, 4);
    b.store(b.gep(buf, b.param(0)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Local-buffer over-read: v = buf[idx] (256 B buffer); *sink = v. */
IrModule
localReadKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "local_read", {{"sink", Type::ptr(4)}, {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    b.store(b.gep(buf, b.constInt(0)), b.constInt(3, Type::i32()));
    auto v = b.load(b.gep(buf, b.param(1)));
    b.store(b.gep(b.param(0), b.constInt(0)), v);
    b.ret();
    return module(std::move(f));
}

/** Two local buffers; overflow from A by idx (reaches B and beyond). */
IrModule
localMultiKernel()
{
    IrFunction f =
        IrBuilder::makeKernel("local_multi", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto a = b.alloca_(256, 4);
    auto bb = b.alloca_(256, 4);
    // Keep B alive with a legitimate store.
    b.store(b.gep(bb, b.constInt(0)), b.constInt(2, Type::i32()));
    b.store(b.gep(a, b.param(0)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/**
 * Cross-frame attack via integer laundering (the Mind-Control-Attack
 * idiom): the callee derives a raw 48-bit address from its own buffer
 * and writes into the caller's frame. LMI rejects the ptrtoint at
 * compile time (§XII-B); tagging schemes lose provenance.
 */
IrModule
crossFrameKernel(int64_t delta)
{
    IrModule m;
    {
        IrFunction helper =
            IrBuilder::makeKernel("helper", {{"delta", Type::i64()}});
        IrBuilder b(helper);
        b.setInsertPoint(b.block("entry"));
        auto mine = b.alloca_(256, 4);
        auto raw = b.iand(b.ptrToInt(mine),
                          b.constInt(int64_t(lowMask(48))));
        auto target = b.intToPtr(b.iadd(raw, b.param(0)), Type::ptr(4, MemSpace::Local));
        b.store(target, b.constInt(0xEE, Type::i32()));
        b.ret();
        m.functions.push_back(std::move(helper));
    }
    {
        IrFunction kernel = IrBuilder::makeKernel("xframe", {});
        IrBuilder b(kernel);
        b.setInsertPoint(b.block("entry"));
        auto victim = b.alloca_(256, 4); // the caller's frame buffer
        b.store(b.gep(victim, b.constInt(0)), b.constInt(7, Type::i32()));
        b.call("helper", Type::voidTy(), {b.constInt(delta)});
        b.ret();
        m.functions.push_back(std::move(kernel));
    }
    return m;
}

/** Shared-memory overflow from a static tile. */
IrModule
sharedStoreKernel(uint64_t tile_bytes, bool second_tile)
{
    IrFunction f =
        IrBuilder::makeKernel("shared_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto tile = b.sharedBuffer("tileA", tile_bytes, 4);
    if (second_tile) {
        auto tb = b.sharedBuffer("tileB", tile_bytes, 4);
        b.store(b.gep(tb, b.constInt(0)), b.constInt(2, Type::i32()));
    }
    b.store(b.gep(tile, b.param(0)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Dynamic shared pool overflow. */
IrModule
dynSharedKernel()
{
    IrFunction f =
        IrBuilder::makeKernel("dyn_shared_oob", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto pool = b.dynamicShared(4);
    b.store(b.gep(pool, b.param(0)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Intra-object overflow: one 64 B struct, field A (8 i32) into B. */
IrModule
intraObjectKernel(MemSpace space)
{
    IrFunction f =
        IrBuilder::makeKernel("intra_oob", {{"obj", Type::ptr(4)},
                                            {"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    ValueId obj;
    switch (space) {
      case MemSpace::Global:
        obj = b.param(0);
        break;
      case MemSpace::Local:
        obj = b.alloca_(256, 4);
        break;
      case MemSpace::Shared:
        obj = b.sharedBuffer("obj", 256, 4);
        break;
      default:
        lmi_panic("bad intra-object space");
    }
    // Field A is obj[0..7]; the write at `idx` in 8..15 corrupts field B
    // of the same 256 B object.
    b.store(b.gep(obj, b.param(1)), b.constInt(1, Type::i32()));
    b.ret();
    return module(std::move(f));
}

/** Device-heap kernel: p = malloc(bytes); p[idx] = 1; optional frees. */
IrModule
heapKernel(uint64_t bytes, bool free_before_use, bool use_copy,
           bool realloc_between, bool double_free)
{
    IrFunction f = IrBuilder::makeKernel("heap_case", {{"idx", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto size = b.constInt(int64_t(bytes));
    auto p = b.malloc_(size, 4);
    auto copy = b.gep(p, b.constInt(0)); // an alias made before free
    b.store(b.gep(p, b.constInt(0)), b.constInt(1, Type::i32()));
    if (free_before_use) {
        b.free_(p);
        if (realloc_between) {
            // The allocator reuses the chunk for a new owner.
            auto p2 = b.malloc_(size, 4);
            b.store(b.gep(p2, b.constInt(0)), b.constInt(9, Type::i32()));
        }
        if (double_free) {
            b.free_(p);
        } else {
            auto target = use_copy ? copy : p;
            b.store(b.gep(target, b.param(0)),
                    b.constInt(2, Type::i32()));
        }
    } else {
        b.store(b.gep(p, b.param(0)), b.constInt(2, Type::i32()));
        b.free_(p);
    }
    b.ret();
    return module(std::move(f));
}

/** Free a stack pointer through the device heap free() (invalid free). */
IrModule
invalidDeviceFreeKernel()
{
    IrFunction f = IrBuilder::makeKernel("bad_free", {});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto buf = b.alloca_(256, 4);
    b.store(b.gep(buf, b.constInt(0)), b.constInt(1, Type::i32()));
    b.free_(buf);
    b.ret();
    return module(std::move(f));
}

/**
 * Use-after-scope: helper returns its stack buffer; the kernel
 * dereferences it after (optionally) a second helper reused the frame.
 */
IrModule
uasKernel(bool delayed, bool is_write)
{
    IrModule m;
    {
        IrFunction helper = IrBuilder::makeKernel("mk", {});
        helper.ret_type = Type::ptr(4, MemSpace::Local);
        IrBuilder b(helper);
        b.setInsertPoint(b.block("entry"));
        auto buf = b.alloca_(256, 4);
        b.store(b.gep(buf, b.constInt(0)), b.constInt(5, Type::i32()));
        b.retVal(buf);
        m.functions.push_back(std::move(helper));
    }
    {
        IrFunction filler = IrBuilder::makeKernel("filler", {});
        IrBuilder b(filler);
        b.setInsertPoint(b.block("entry"));
        auto buf = b.alloca_(256, 4);
        b.store(b.gep(buf, b.constInt(0)), b.constInt(6, Type::i32()));
        b.ret();
        m.functions.push_back(std::move(filler));
    }
    {
        IrFunction kernel =
            IrBuilder::makeKernel("uas", {{"sink", Type::ptr(4)}});
        IrBuilder b(kernel);
        b.setInsertPoint(b.block("entry"));
        auto stale = b.call("mk", Type::ptr(4, MemSpace::Local), {});
        if (delayed)
            b.call("filler", Type::voidTy(), {});
        if (is_write) {
            b.store(b.gep(stale, b.constInt(0)),
                    b.constInt(0xBAD, Type::i32()));
        } else {
            auto v = b.load(b.gep(stale, b.constInt(0)));
            b.store(b.gep(b.param(0), b.constInt(0)), v);
        }
        b.ret();
        m.functions.push_back(std::move(kernel));
    }
    return m;
}

// ------------------------------------------------------------------
// Table III host-side setups
// ------------------------------------------------------------------

using Setup = std::function<MaybeFault(Device&, std::vector<uint64_t>*)>;

/** Pass constant kernel parameters. */
Setup
params(std::vector<uint64_t> values)
{
    return [values](Device&, std::vector<uint64_t>* out) {
        *out = values;
        return MaybeFault();
    };
}

/** cudaMalloc a @p bytes buffer and pass it ahead of @p rest. */
Setup
buffer(uint64_t bytes, std::vector<uint64_t> rest = {})
{
    return [bytes, rest](Device& dev, std::vector<uint64_t>* out) {
        *out = {dev.cudaMalloc(bytes)};
        out->insert(out->end(), rest.begin(), rest.end());
        return MaybeFault();
    };
}

/** cudaFree a 1 KiB buffer (optionally letting a new allocation reuse
 *  it), then pass the freed handle or a pre-free copy of it to poke. */
Setup
hostUaf(bool use_copy, bool realloc_between)
{
    return [=](Device& dev, std::vector<uint64_t>* out) {
        uint64_t buf = dev.cudaMalloc(1024);
        const uint64_t copy = buf;
        if (MaybeFault f = dev.cudaFree(buf))
            return f;
        if (realloc_between)
            dev.poke32(dev.cudaMalloc(1024), 42);
        *out = {use_copy ? copy : buf, 0};
        return MaybeFault();
    };
}

/** Append Table III's 38 cases, spatial first. */
void
addTableIII(std::vector<AttackScenario>* cases)
{
    auto add = [cases](std::string id, ViolationCategory category,
                       std::string desc, std::string kernel,
                       std::function<IrModule()> build, Setup setup,
                       unsigned block = 1,
                       uint64_t dyn_shared = 0) -> AttackScenario& {
        AttackScenario s;
        s.name = std::move(id);
        s.description = std::move(desc);
        s.kernel = std::move(kernel);
        s.expected = AccessVerdict::Unknown;
        if (build)
            s.build = [build](bool) { return build(); };
        s.block = block;
        s.category = category;
        s.dynamic_shared_bytes = dyn_shared;
        s.setup = std::move(setup);
        return cases->emplace_back(std::move(s));
    };
    using C = ViolationCategory;

    // ---- Global OoB (2) -------------------------------------------
    add("spatial.global.adjacent", C::GlobalOoB,
        "write one element past a 256 B global buffer", "poke",
        storeKernel, buffer(256, {64}));
    add("spatial.global.nonadjacent", C::GlobalOoB,
        "write 16 KiB past a 256 B global buffer", "poke", storeKernel,
        buffer(256, {4096}));

    // ---- Heap OoB (3) ----------------------------------------------
    auto heap_oob = [] {
        return heapKernel(512, false, false, false, false);
    };
    add("spatial.heap.adjacent", C::HeapOoB,
        "write one element past a 512 B kernel-malloc buffer",
        "heap_case", heap_oob, params({128}));
    add("spatial.heap.nonadjacent", C::HeapOoB,
        "write 64 KiB past a kernel-malloc buffer (inside the heap)",
        "heap_case", heap_oob, params({16384}));
    add("spatial.heap.beyond", C::HeapOoB,
        "write escaping the whole device-heap region", "heap_case",
        heap_oob, params({kHeapSize / 4}));

    // ---- Local OoB (8) ----------------------------------------------
    auto local256 = [] { return localStoreKernel(256); };
    add("spatial.local.single.adjacent", C::LocalOoB,
        "write one element past a 256 B stack buffer", "local_oob",
        local256, params({64}));
    add("spatial.local.single.nonadjacent", C::LocalOoB,
        "write 4 KiB past a 256 B stack buffer (inside the frame area)",
        "local_oob", local256, params({1024}));
    add("spatial.local.multi.adjacent", C::LocalOoB,
        "overflow stack buffer A into sibling buffer B", "local_multi",
        localMultiKernel, params({64}));
    add("spatial.local.multi.nonadjacent", C::LocalOoB,
        "overflow stack buffer A into the middle of sibling B",
        "local_multi", localMultiKernel, params({96}));
    add("spatial.local.xframe.adjacent", C::LocalOoB,
        "callee writes the caller's frame via laundered address",
        "xframe", [] { return crossFrameKernel(-256); }, nullptr);
    add("spatial.local.xframe.nonadjacent", C::LocalOoB,
        "callee writes far into another frame via laundered address",
        "xframe", [] { return crossFrameKernel(8192); }, nullptr);
    add("spatial.local.beyond.write", C::LocalOoB,
        "write escaping the whole per-thread local window", "local_oob",
        local256, params({kLocalWindow / 4}));
    add("spatial.local.beyond.read", C::LocalOoB,
        "read escaping the whole per-thread local window", "local_read",
        localReadKernel, buffer(256, {kLocalWindow / 4}));

    // ---- Shared OoB (6) ----------------------------------------------
    auto tile = [] { return sharedStoreKernel(1024, false); };
    add("spatial.shared.single.adjacent", C::SharedOoB,
        "write one element past a 1 KiB static shared tile",
        "shared_oob", tile, params({256}), 32);
    add("spatial.shared.single.nonadjacent", C::SharedOoB,
        "write 16 KiB past a static shared tile", "shared_oob", tile,
        params({4096}), 32);
    add("spatial.shared.multi", C::SharedOoB,
        "overflow shared tile A into sibling tile B", "shared_oob",
        [] { return sharedStoreKernel(1024, true); }, params({300}), 32);
    add("spatial.shared.beyond", C::SharedOoB,
        "write escaping the shared-memory allocation entirely",
        "shared_oob", tile, params({kSharedCapacity / 4}), 32);
    add("spatial.shared.static_into_dynamic", C::SharedOoB,
        "static tile overflow into the dynamic shared pool",
        "shared_oob", tile, params({300}), 32, 2048);
    add("spatial.shared.dynamic_beyond", C::SharedOoB,
        "dynamic-pool access beyond the launched pool size",
        "dyn_shared_oob", dynSharedKernel, params({2048}), 32, 1024);

    // ---- Intra-object OoB (3) -----------------------------------------
    // The object parameter is unused by the local and shared variants.
    add("spatial.intra.global", C::IntraOoB,
        "field A overflows into field B of the same global struct",
        "intra_oob", [] { return intraObjectKernel(MemSpace::Global); },
        buffer(256, {9}));
    add("spatial.intra.local", C::IntraOoB,
        "field A overflows into field B of the same stack struct",
        "intra_oob", [] { return intraObjectKernel(MemSpace::Local); },
        buffer(256, {9}));
    add("spatial.intra.shared", C::IntraOoB,
        "field A overflows into field B of the same shared struct",
        "intra_oob", [] { return intraObjectKernel(MemSpace::Shared); },
        buffer(256, {9}), 32);

    // ---- Use-after-free (8) --------------------------------------------
    add("temporal.uaf.global.imm.orig", C::UseAfterFree,
        "store through the freed handle immediately", "poke",
        storeKernel, hostUaf(false, false));
    add("temporal.uaf.global.imm.copy", C::UseAfterFree,
        "store through a pre-free copy immediately", "poke", storeKernel,
        hostUaf(true, false));
    add("temporal.uaf.global.delayed.orig", C::UseAfterFree,
        "store through the freed handle after reallocation", "poke",
        storeKernel, hostUaf(false, true));
    add("temporal.uaf.global.delayed.copy", C::UseAfterFree,
        "store through a pre-free copy after reallocation", "poke",
        storeKernel, hostUaf(true, true));
    add("temporal.uaf.heap.imm.orig", C::UseAfterFree,
        "kernel-malloc UAF through the freed pointer", "heap_case",
        [] { return heapKernel(512, true, false, false, false); },
        params({0}))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uaf.heap.imm.copy", C::UseAfterFree,
        "kernel-malloc UAF through a pre-free alias", "heap_case",
        [] { return heapKernel(512, true, true, false, false); },
        params({0}))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uaf.heap.delayed.orig", C::UseAfterFree,
        "kernel-malloc UAF after the chunk was reallocated", "heap_case",
        [] { return heapKernel(512, true, false, true, false); },
        params({0}))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uaf.heap.delayed.copy", C::UseAfterFree,
        "kernel-malloc UAF via alias after reallocation", "heap_case",
        [] { return heapKernel(512, true, true, true, false); },
        params({0}))
        .expected = AccessVerdict::TemporalUAF;

    // ---- Use-after-scope (4) ---------------------------------------------
    add("temporal.uas.imm.read", C::UseAfterScope,
        "read a returned stack buffer right after scope exit", "uas",
        [] { return uasKernel(false, false); }, buffer(256))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uas.imm.write", C::UseAfterScope,
        "write a returned stack buffer right after scope exit", "uas",
        [] { return uasKernel(false, true); }, buffer(256))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uas.delayed.read", C::UseAfterScope,
        "read a stale stack buffer after another frame reused it", "uas",
        [] { return uasKernel(true, false); }, buffer(256))
        .expected = AccessVerdict::TemporalUAF;
    add("temporal.uas.delayed.write", C::UseAfterScope,
        "write a stale stack buffer after another frame reused it", "uas",
        [] { return uasKernel(true, true); }, buffer(256))
        .expected = AccessVerdict::TemporalUAF;

    // ---- Invalid free (2) ----------------------------------------------
    add("temporal.invalidfree.host", C::InvalidFree,
        "cudaFree of a pointer never returned by cudaMalloc", "", nullptr,
        [](Device& dev, std::vector<uint64_t>*) {
            uint64_t bogus = kGlobalBase + 0x13371000;
            return dev.cudaFree(bogus);
        });
    add("temporal.invalidfree.device", C::InvalidFree,
        "device free() of a stack pointer", "bad_free",
        invalidDeviceFreeKernel, nullptr);

    // ---- Double free (2) --------------------------------------------------
    add("temporal.doublefree.host", C::DoubleFree,
        "cudaFree of the same buffer twice", "", nullptr,
        [](Device& dev, std::vector<uint64_t>*) {
            uint64_t buf = dev.cudaMalloc(1024);
            uint64_t again = buf;
            if (MaybeFault f = dev.cudaFree(buf))
                return f;
            return dev.cudaFree(again);
        });
    add("temporal.doublefree.device", C::DoubleFree,
        "device free() of the same chunk twice", "heap_case",
        [] { return heapKernel(512, true, false, false, true); },
        params({0}));
}

} // namespace

const std::vector<AttackScenario>&
attackSuite()
{
    static const std::vector<AttackScenario> suite = [] {
        std::vector<AttackScenario> cases = {
            {"intra_padding",
             "store past requested malloc size, inside the pow2 padding",
             "intra_padding", AccessVerdict::SpatialOOB,
             buildIntraPadding},
            {"subobject_field",
             "field pointer overflows its field inside the allocation",
             "subobject_field", AccessVerdict::SubObjectOOB,
             buildSubobjectField},
            {"uaf_invalidate",
             "store through the original pointer after free",
             "uaf_invalidate", AccessVerdict::TemporalUAF,
             buildUafInvalidate},
            {"uaf_realloc",
             "store through a stale pointer after the chunk is "
             "reallocated",
             "uaf_realloc", AccessVerdict::TemporalUAF, buildUafRealloc},
            {"off_by_one",
             "one-past-the-end store on an exactly pow2-sized buffer",
             "off_by_one", AccessVerdict::SpatialOOB, buildOffByOne},
            {"neg_stride",
             "down-counting stride underflows the allocation base",
             "neg_stride", AccessVerdict::SpatialOOB, buildNegStride},
        };
        addTableIII(&cases);
        return cases;
    }();
    return suite;
}

} // namespace lmi
