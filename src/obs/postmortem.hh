/**
 * @file
 * The flight recorder: a small always-on ring of the last N
 * XferRecords, and the postmortem bundle writer the drivers invoke
 * when a run stops on a trap, panic, or any other nonzero outcome.
 *
 * Call/return structure is exactly the context worth capturing at
 * failure time: the bundle contains the recent transfer history, the
 * machine's shadow stack symbolized through a ProcMap as a
 * backtrace, the frame-heap and AV state, a disassembly window around
 * the faulting PC, and the final telemetry snapshot when a sampler
 * was attached. Recording honors the zero-simulated-cost contract
 * (the recorder is an ordinary XferObserver), and its records stamp
 * absolute cycles, exact on both backends.
 */

#ifndef FPC_OBS_POSTMORTEM_HH
#define FPC_OBS_POSTMORTEM_HH

#include <string>
#include <vector>

#include "machine/machine.hh"
#include "program/loader.hh"

namespace fpc::obs
{

class Telemetry;

/** The observer: records the last N transfers. */
class FlightRecorder : public XferObserver
{
  public:
    static constexpr std::size_t defaultCapacity = 256;

    explicit FlightRecorder(std::size_t capacity = defaultCapacity);

    void onXfer(const XferRecord &record, const Machine &machine) override;

    /** Oldest-first snapshot of the retained records. */
    std::vector<XferRecord> records() const;
    std::size_t capacity() const { return capacity_; }
    CountT recorded() const { return recorded_; }

    void clear();

  private:
    std::size_t capacity_;
    std::vector<XferRecord> ring_;
    std::size_t head_ = 0; ///< next write slot once the ring is full
    CountT recorded_ = 0;
};

/** Where and under what identity to write the bundle. */
struct PostmortemConfig
{
    std::string dir;        ///< bundle directory (created if missing)
    std::string filePrefix; ///< e.g. "job-3-" for fpcrun bundles
    std::string driver;     ///< "fpcvm" | "fpcrun" | test name
    std::string impl;       ///< implName() of the machine config
    unsigned disasmWindowBytes = 48; ///< bytes around the faulting PC
};

/**
 * Write the bundle: `<prefix>postmortem.json` (stop reason, faulting
 * PC, the machine's shadow stack as a symbolized backtrace, transfer
 * ring, machine/heap/AV state, final metrics sample of this job) and `<prefix>disasm.txt` (the faulting
 * procedure's code around the fault, faulting instruction marked).
 * telemetry may be null. Returns false (after a warning on stderr)
 * if the directory or files cannot be written; simulation state is
 * never touched.
 */
bool writePostmortem(const PostmortemConfig &config,
                     const Machine &machine, const RunResult &result,
                     const LoadedImage &image,
                     const FlightRecorder &recorder,
                     const Telemetry *telemetry);

} // namespace fpc::obs

#endif // FPC_OBS_POSTMORTEM_HH
