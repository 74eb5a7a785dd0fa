/**
 * @file
 * The security corpus: every attack the detection-coverage matrix
 * (security/coverage.hpp) runs, in one list of one case type.
 *
 * Six adversarial scenarios come first, each chosen to discriminate
 * between mechanism designs rather than to maximize damage, and each
 * paired with a benign twin that performs the same shape of computation
 * entirely in bounds:
 *
 *  intra_padding   store past the requested malloc size but inside the
 *                  power-of-two padding the in-pointer extent protects —
 *                  the fine-grained gap of every pow2 scheme (LMI, Baggy);
 *  subobject_field field pointer overflows its field while staying
 *                  inside the allocation — Table III's 0/3 row, only
 *                  the sub-K extent extension can see it;
 *  uaf_invalidate  store through the original pointer after free();
 *  uaf_realloc     free, malloc again (allocator hands the chunk back),
 *                  store through the stale pointer;
 *  off_by_one      the classic idx == N store one element past an
 *                  exactly pow2-sized buffer (no padding to hide in);
 *  neg_stride      a down-counting loop whose index underflows the
 *                  base on every iteration (negative byte offsets).
 *
 * These kernels are single-thread and self-contained — the buffers come
 * from in-kernel alloca/malloc, never from parameters — so the safety
 * oracle has full provenance and classifies *every* access: benign
 * twins fully ProvenSafe, attacks with the scenario's expected verdict.
 *
 * The paper's 38 Table III violation cases (§IX, reconstructing
 * cuCatch's unpublished suite) follow, each tagged with its category:
 *
 *  Spatial (22): global OoB (2), device-heap OoB (3), local/stack OoB
 *  (8: single/multi buffer x within-frame/across-frame/beyond-local),
 *  shared OoB (6: single/multi/beyond/static-into-dynamic/dynamic-pool),
 *  intra-object OoB (3).
 *
 *  Temporal (16): use-after-free (8: global/heap x immediate/delayed x
 *  original/copied pointer), use-after-scope (4), invalid free (2),
 *  double free (2).
 *
 * Several of them index through kernel parameters or act on the host
 * side (cudaMalloc/cudaFree), so the oracle proves less about them:
 * their expected verdict records what it does prove. They have no
 * benign twins yet. Nothing is hard-coded per mechanism — detection
 * emerges from each mechanism's semantics.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/safety_oracle.hpp"
#include "core/fault.hpp"
#include "ir/ir.hpp"

namespace lmi {

class Device;

/** Table III's violation taxonomy. */
enum class ViolationCategory : uint8_t {
    GlobalOoB,
    HeapOoB,
    LocalOoB,
    SharedOoB,
    IntraOoB,
    UseAfterFree,
    UseAfterScope,
    InvalidFree,
    DoubleFree,
};

const char* violationCategoryName(ViolationCategory category);

/** True for the spatial half of the taxonomy. */
bool isSpatialCategory(ViolationCategory category);

/** One case of the corpus. */
struct AttackScenario
{
    std::string name;
    std::string description;
    /** Kernel name inside the built module; empty for a host-only
     *  case, which compiles and launches nothing. */
    std::string kernel;
    /** Oracle verdict the attack variant's bad access must get. */
    analysis::AccessVerdict expected;
    /** Build the kernel; @p benign selects the twin, which only the
     *  cases outside Table III have. */
    std::function<ir::IrModule(bool benign)> build;
    unsigned grid = 1;
    unsigned block = 1;
    /** Table III row; unset for the cases outside the paper's suite. */
    std::optional<ViolationCategory> category = std::nullopt;
    uint64_t dynamic_shared_bytes = 0;
    /**
     * Host-side work on the case's fresh Device before the launch:
     * allocate buffers and fill the kernel parameters. A fault it
     * returns (a runtime free error) is the case's detection, and
     * nothing is launched. Unset: the kernel takes no parameters.
     */
    std::function<MaybeFault(Device&, std::vector<uint64_t>* params)>
        setup = nullptr;
};

/** The 44-case corpus: the six scenarios, then Table III's 38 cases
 *  (spatial first), in a fixed order. */
const std::vector<AttackScenario>& attackSuite();

} // namespace lmi
