/**
 * @file
 * Figure 5: the device-heap malloc()'s chunk layout and its pre-existing
 * fragmentation.
 *
 * Demonstrates the paper's observation that the CUDA kernel allocator
 * already rounds requests to chunk units (multiples of 80 B for small
 * requests, 2208 B for large ones), wasting up to ~50% — which is why
 * LMI's 2^n rounding is comparatively cheap on the heap.
 */

#include <cstdio>

#include "alloc/msg_heap.hpp"
#include "bench_util.hpp"

using namespace lmi;

int
main()
{
    bench::banner("Figure 5", "kernel malloc() chunk-unit fragmentation");

    TextTable table({"request", "baseline reserved", "baseline waste",
                     "LMI reserved", "LMI waste"});
    const std::vector<uint64_t> requests = {16,  64,   80,   81,  160,
                                            200, 512,  1024, 1100, 2208,
                                            2209, 3000, 4000, 6624, 10000};

    const MessageHeap::Config base_cfg{.role = HeapRole::Device};
    MessageHeap::Config lmi_cfg = base_cfg;
    lmi_cfg.policy = AllocPolicy::Pow2Aligned;

    double worst_base = 0.0;
    for (uint64_t req : requests) {
        MessageHeap base_heap(base_cfg);
        MessageHeap lmi_heap(lmi_cfg);
        base_heap.alloc(0, 0, req);
        lmi_heap.alloc(0, 0, req);
        const uint64_t base_res = base_heap.liveReservedBytes();
        const uint64_t lmi_res = lmi_heap.liveReservedBytes();
        const double base_waste =
            100.0 * (1.0 - double(req) / double(base_res));
        const double lmi_waste =
            100.0 * (1.0 - double(req) / double(lmi_res));
        // The paper's "up to 50%" figure is about chunk-multiple
        // rounding; sub-chunk requests (16 B in an 80 B chunk) waste
        // more, but those are allocator minimums on real GPUs too.
        if (req >= 80)
            worst_base = std::max(worst_base, base_waste);
        table.addRow({std::to_string(req) + " B",
                      std::to_string(base_res) + " B", fmtPct(base_waste),
                      std::to_string(lmi_res) + " B", fmtPct(lmi_waste)});
    }
    std::printf("%s\n", table.render().c_str());

    // Parallel allocation sharding: threads in different warps land in
    // different buffer groups (shared group headers).
    MessageHeap heap(base_cfg);
    const uint64_t w0 = heap.alloc(/*sm=*/0, /*tid=*/0, 64);
    const uint64_t w1 = heap.alloc(/*sm=*/0, /*tid=*/32, 64);
    const uint64_t w0b = heap.alloc(/*sm=*/0, /*tid=*/1, 64);
    std::printf("warp sharding: tid0 -> 0x%llx, tid32 -> 0x%llx (distinct "
                "group), tid1 -> 0x%llx (adjacent chunk)\n",
                static_cast<unsigned long long>(w0),
                static_cast<unsigned long long>(w1),
                static_cast<unsigned long long>(w0b));
    std::printf("groups created: %zu\n\n", heap.groupCount());
    bench::compare("worst baseline chunk waste", 50.0, worst_base, "%");
    return 0;
}
