#ifndef REBUDGET_TRACE_REPLAY_H_
#define REBUDGET_TRACE_REPLAY_H_

/**
 * @file
 * Recorded-trace replay: bring your own memory trace.
 *
 * Downstream users can feed real application traces (e.g. from Pin,
 * DynamoRIO or a full simulator) into the profiling and simulation
 * pipeline instead of the synthetic catalog.  The on-disk format is one
 * access per line: `R <hex-address>` or `W <hex-address>`; lines
 * starting with '#' are comments.
 */

#include <string>
#include <vector>

#include "rebudget/trace/generator.h"

namespace rebudget::trace {

/** Cyclic replay of a recorded access sequence. */
class ReplayGen : public AddressGenerator
{
  public:
    /**
     * @param accesses   non-empty recorded sequence (replayed
     *                   cyclically)
     * @param base_addr  offset added to every address (address-space
     *                   placement for multi-core runs)
     * @param line_bytes cache-line granularity used to compute the
     *                   footprint (distinct lines touched)
     */
    explicit ReplayGen(std::vector<Access> accesses,
                       uint64_t base_addr = 0,
                       uint32_t line_bytes = 64);

    void fill(Access *out, size_t n) override;
    uint64_t footprintBytes() const override { return footprint_; }
    std::unique_ptr<AddressGenerator> clone() const override;

    /** @return number of recorded accesses (one replay lap). */
    size_t length() const { return accesses_.size(); }

  private:
    std::vector<Access> accesses_;
    uint64_t baseAddr_;
    uint64_t footprint_;
    size_t pos_ = 0;
};

/**
 * Parse a trace file (see file banner for the format).
 *
 * @throws util::FatalError on unreadable files or malformed lines.
 */
std::vector<Access> loadTraceFile(const std::string &path);

/** Write a trace file in the same format. */
void saveTraceFile(const std::string &path,
                   const std::vector<Access> &accesses);

} // namespace rebudget::trace

#endif // REBUDGET_TRACE_REPLAY_H_
