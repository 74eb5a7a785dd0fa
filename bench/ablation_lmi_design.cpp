/**
 * @file
 * Ablations over LMI's design choices:
 *
 *  1. Minimum allocation size K (paper picks 256 B): smaller K widens
 *     the extent field's reach downward but shrinks the maximum
 *     representable buffer; larger K wastes more memory. The sweep
 *     shows fragmentation vs. representable range.
 *
 *  2. Delayed termination (§XII-A): the OCU poisons instead of faulting.
 *     We count how many OCU violations fire during *benign* Table V
 *     runs — each would be a false-positive kernel abort under an
 *     immediate-termination design, yet none is ever dereferenced.
 */

#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "mechanisms/lmi_mechanism.hpp"
#include "mechanisms/registry.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

int
main(int argc, char** argv)
{
    const double scale = bench::parseBenchArgs(argc, argv, 1.0).scale;
    bench::banner("Ablation", "K sweep + delayed termination");

    // --- 1. Minimum-allocation-size sweep ------------------------------
    // The trade-off only shows on a trace that mixes the device heap's
    // small requests with large model tensors: big K wastes memory on
    // every small allocation, small K cannot encode LLM-scale buffers
    // (the paper's §IV-B2 motivation).
    std::vector<uint64_t> small_trace, tensor_trace;
    {
        Rng rng(2025);
        for (unsigned i = 0; i < 1500; ++i)
            small_trace.push_back(rng.range(8, 2048)); // kernel malloc
        for (unsigned i = 0; i < 400; ++i)
            tensor_trace.push_back(rng.range(4 * kKiB, 8 * kMiB));
    }
    const uint64_t shard = 64 * kGiB; // LLM-scale encodability probe
    auto overhead_pct = [](const std::vector<uint64_t>& trace,
                           const PointerCodec& codec) {
        uint64_t packed = 0, aligned = 0;
        for (uint64_t size : trace) {
            packed += alignUp(size, 16);
            aligned += codec.alignedSize(size);
        }
        return (double(aligned) / double(packed) - 1.0) * 100.0;
    };
    TextTable ksweep({"K (bytes)", "max buffer", "small-alloc overhead",
                      "tensor overhead", "64 GiB shard encodable?"});
    for (unsigned log2k : {4u, 6u, 8u, 10u, 12u}) {
        const PointerCodec codec(log2k);
        const bool shard_fits = codec.alignedSize(shard) != 0;
        const uint64_t max_buf = codec.maxAllocSize();
        ksweep.addRow({std::to_string(codec.minAllocSize()),
                       max_buf >= kGiB
                           ? std::to_string(max_buf / kGiB) + " GiB"
                           : std::to_string(max_buf / kMiB) + " MiB",
                       fmtPct(overhead_pct(small_trace, codec)),
                       fmtPct(overhead_pct(tensor_trace, codec)),
                       shard_fits ? "yes" : "NO"});
    }
    std::printf("%s", ksweep.render().c_str());
    std::printf("K = 256 B (the paper's choice) matches the CUDA "
                "allocator's natural 256 B granularity: smaller K cannot "
                "encode LLM-scale buffers in 5 extent bits, larger K "
                "only adds fragmentation on small allocations.\n\n");

    // --- 2. Delayed termination ----------------------------------------
    // 2a. The Fig. 14 idiom: a pointer walks one element past its buffer
    // but is never dereferenced there. The OCU poisons the transient
    // value; no fault may be raised.
    uint64_t idiom_poisons = 0;
    bool idiom_faulted = false;
    {
        using namespace ir;
        IrFunction f = IrBuilder::makeKernel("walk", {{"buf", Type::ptr(4)}});
        IrBuilder b(f);
        auto entry = b.block("entry");
        auto header = b.block("header");
        auto body = b.block("body");
        auto exit = b.block("exit");
        b.setInsertPoint(entry);
        auto start = b.param(0);
        auto n = b.constInt(64);
        auto one = b.constInt(1);
        auto four = b.constInt(4);
        b.jump(header);
        b.setInsertPoint(header);
        auto i = b.phi(Type::i64(), {{b.constInt(0), entry}});
        // ptr = start + i, recomputed each iteration; the final
        // increment reaches one-past-the-end without a dereference.
        auto ptr = b.gep(start, i);
        b.ptrAddBytes(ptr, four); // the iterator's post-increment
        auto cond = b.icmp(CmpOp::LT, i, n);
        b.br(cond, body, exit);
        b.setInsertPoint(body);
        auto v = b.load(ptr);
        b.store(ptr, b.iadd(v, one));
        auto next = b.iadd(i, one);
        f.inst(i).ops.push_back(next);
        f.inst(i).phi_blocks.push_back(body);
        b.jump(header);
        b.setInsertPoint(exit);
        b.ret();
        ir::IrModule m;
        m.functions.push_back(std::move(f));

        Device dev(makeMechanism(MechanismKind::Lmi));
        const uint64_t buf = dev.cudaMalloc(64 * 4); // exact 256 B
        const CompiledKernel k = dev.compile(m, "walk");
        const RunResult r = dev.launch(k, 1, 32, {buf});
        idiom_faulted = r.faulted();
        idiom_poisons = dev.stats().counter("ocu.violations");
    }
    std::printf("Fig. 14 loop idiom: %llu transient OCU poisons, kernel "
                "%s — delayed termination avoids the false positive.\n\n",
                static_cast<unsigned long long>(idiom_poisons),
                idiom_faulted ? "FAULTED (BUG)" : "completed cleanly");

    uint64_t poisons = 0, faults = 0, checks = 0;
    for (const auto& profile : workloadSuite()) {
        Device dev(makeMechanism(MechanismKind::Lmi));
        const WorkloadRun run = runWorkload(dev, profile, scale);
        faults += run.result.faults.size();
        poisons += dev.stats().counter("ocu.violations");
        checks += dev.stats().counter("ocu.checks");
    }

    // --- 3. OCU latency sensitivity -------------------------------------
    // Measured over the suite's most latency-sensitive kernels (tight
    // pointer->LDS dependency chains). Warp-level parallelism absorbs
    // most of the register-sliced delay; across the full suite the
    // 3-cycle design stays under 1% (Fig. 12 harness).
    std::printf("\nOCU latency sensitivity (geomean overhead over the "
                "most sensitive kernels: lud_cuda/needle/bert/gaussian):\n");
    TextTable sweep({"OCU extra latency (cycles)", "overhead"});
    const std::vector<std::string> probe_set = {"lud_cuda", "needle",
                                                "bert", "gaussian"};
    std::vector<uint64_t> bases;
    for (const auto& name : probe_set) {
        Device dev;
        bases.push_back(
            runWorkload(dev, findWorkload(name), scale).result.cycles);
    }
    for (unsigned latency : {0u, 3u, 6u, 12u}) {
        LmiMechanism::Options opts;
        opts.ocu_latency = latency;
        std::vector<double> norms;
        for (size_t i = 0; i < probe_set.size(); ++i) {
            Device dev(std::make_unique<LmiMechanism>(opts));
            const WorkloadRun run =
                runWorkload(dev, findWorkload(probe_set[i]), scale);
            norms.push_back(double(run.result.cycles) / double(bases[i]));
        }
        sweep.addRow({std::to_string(latency),
                      fmtPct((geomean(norms) - 1.0) * 100.0)});
    }
    std::printf("%s\n", sweep.render().c_str());
    TextTable delayed({"metric", "value"});
    delayed.addRow({"OCU checks across benign Table V runs",
                    std::to_string(checks)});
    delayed.addRow({"OCU poisons (transient out-of-bounds values)",
                    std::to_string(poisons)});
    delayed.addRow({"EC faults (actual bad dereferences)",
                    std::to_string(faults)});
    std::printf("%s", delayed.render().c_str());
    std::printf("Every poison with zero faults is a kernel abort an "
                "immediate-termination OCU would have raised spuriously "
                "(the Fig. 14 loop idiom); delayed termination raises "
                "none.\n");
    return 0;
}
