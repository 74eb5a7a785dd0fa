/**
 * @file
 * Protection-mechanism plug-in interface.
 *
 * Every scheme the paper evaluates — LMI, GPUShield, software Baggy
 * Bounds, GMOD canaries, cuCatch, Compute-Sanitizer memcheck, the DBI
 * variants, and the unprotected baseline — implements this interface.
 * The simulator calls the hooks at the architectural points where the
 * real hardware/software would act:
 *
 *  - compile time: codegenOptions() / transformBinary() decide what code
 *    runs (hint bits, SW check sequences, DBI trampolines);
 *  - allocation time: allocPolicy()/encodePointers() shape the
 *    allocators, onHostAlloc/onHostFree/onDeviceAlloc/onDeviceFree see
 *    every buffer event (bounds tables, canaries, liveness);
 *  - execution time: onIntResult() is the OCU attachment point,
 *    onMemAccess() the LSU/EC attachment point, extraIntLatency() the
 *    pipeline cost, onKernelEnd() the end-of-kernel canary sweep.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/msg_heap.hpp"
#include "arch/isa.hpp"
#include "common/stats.hpp"
#include "compiler/codegen.hpp"
#include "core/fault.hpp"
#include "core/pointer.hpp"
#include "sim/config.hpp"
#include "sim/memory.hpp"

namespace lmi {

/** Everything a mechanism may need to inspect or mutate device state. */
struct DeviceState
{
    MessageHeap* global_alloc = nullptr; ///< cudaMalloc heap (Host role)
    MessageHeap* heap_alloc = nullptr;   ///< in-kernel heap (Device role)
    SparseMemory* global_mem = nullptr;
    StatRegistry* stats = nullptr;
    const GpuConfig* config = nullptr;
};

/** One dynamic memory access, as the LSU sees it. */
struct MemAccess
{
    MemSpace space = MemSpace::Global;
    bool is_store = false;
    unsigned width = 4;
    /** Full 64-bit address-register value (may carry an extent). */
    uint64_t reg_value = 0;
    int64_t imm_offset = 0;
    uint32_t gtid = 0;
    /** SM the access issues from (indexes per-SM mechanism state). */
    uint32_t sm = 0;
    /** Stack frame extent of the issuing thread: [frame_base, stack_top). */
    uint64_t frame_base = 0, stack_top = 0;
    /** Shared-memory footprint of the block. */
    uint64_t shared_limit = 0;
};

/** LSU-side outcome of a mechanism check. */
struct MemCheck
{
    /** Effective address handed to the functional memory. */
    uint64_t address = 0;
    MaybeFault fault;
    /** Additional latency the check added (e.g. RCache miss). */
    unsigned extra_cycles = 0;
    /** Per-lane serialized cycles (single-ported check structures). */
    unsigned serialize_cycles = 0;
};

/**
 * Base class; the default implementation is the unprotected baseline.
 */
class ProtectionMechanism
{
  public:
    ProtectionMechanism() = default;
    virtual ~ProtectionMechanism() = default;

    virtual std::string name() const = 0;

    /**
     * Two-phase construction: the Device first queries the compile- and
     * allocation-time configuration, builds its allocators accordingly,
     * then binds the mechanism to the live state.
     */
    virtual void bind(DeviceState state) { state_ = state; }

    // --- Compile-time ------------------------------------------------
    /** Compiler flavor for kernels run under this mechanism. */
    virtual CodegenOptions codegenOptions() const { return {}; }
    /** Binary-level rewrite (DBI schemes). */
    virtual Program transformBinary(const Program& p) { return p; }
    /** Fractional launch overhead (DBI JIT recompilation, ~0.05). */
    virtual double launchOverheadFraction() const { return 0.0; }

    /**
     * Strip this mechanism's in-pointer metadata, yielding the plain
     * device address (used by the host runtime for free/memcpy).
     */
    virtual uint64_t
    canonical(uint64_t ptr) const
    {
        return PointerCodec::addressOf(ptr);
    }

    // --- Allocation-time ---------------------------------------------
    /** Placement policy for cudaMalloc/device malloc/stack/shared. */
    virtual AllocPolicy allocPolicy() const { return AllocPolicy::Packed; }
    /** Return extent-encoded pointers from allocators. */
    virtual bool encodePointers() const { return false; }
    /** Quarantine freed blocks (one-time allocation, §XII-C). */
    virtual bool quarantineFrees() const { return false; }
    /** Extra bytes reserved around each host allocation (canaries). */
    virtual uint64_t hostRedzoneBytes() const { return 0; }
    /**
     * Observe (and possibly tag) a host allocation.
     * @return the pointer value handed back to the program.
     */
    virtual uint64_t onHostAlloc(uint64_t ptr, uint64_t requested) { (void)requested; return ptr; }
    virtual MaybeFault onHostFree(uint64_t ptr) { (void)ptr; return std::nullopt; }
    virtual void onDeviceAlloc(uint64_t ptr, uint64_t requested) { (void)ptr; (void)requested; }
    virtual MaybeFault onDeviceFree(uint64_t ptr) { (void)ptr; return std::nullopt; }

    // --- Execution-time ----------------------------------------------
    /**
     * OCU attachment point: called for hint-marked integer results.
     * @param ptr_in the operand selected by the S bit
     * @param out    the raw ALU result
     * @return the value to write back (possibly poisoned)
     */
    virtual uint64_t
    onIntResult(const Instruction& inst, uint64_t ptr_in, uint64_t out)
    {
        (void)inst;
        (void)ptr_in;
        return out;
    }

    /** Extra result latency on this instruction (OCU register slices). */
    virtual unsigned
    extraIntLatency(const Instruction& inst) const
    {
        (void)inst;
        return 0;
    }

    /** LSU/EC attachment point: validate and translate one access. */
    virtual MemCheck
    onMemAccess(const MemAccess& access)
    {
        MemCheck r;
        r.address = (access.reg_value + uint64_t(access.imm_offset));
        return r;
    }

    /** Called once per kernel launch with the final binary. */
    virtual void onKernelLaunch(const Program& p) { (void)p; }

    /** End-of-kernel sweep (canary verification). */
    virtual std::vector<Fault> onKernelEnd() { return {}; }

  protected:
    DeviceState state_;
};

/** The unprotected baseline. */
class BaselineMechanism final : public ProtectionMechanism
{
  public:
    std::string name() const override { return "baseline"; }
};

} // namespace lmi
