/**
 * @file
 * The Recorder: captures one job's execution history — periodic state
 * digests on the machine's CycleSampler interval, every scheduler
 * decision, and the final state — into a replay::JobRecord.
 *
 * The recorder *is* an exact CycleSampler, so attaching it costs zero
 * simulated cycles and routes run() through the eager per-step loop;
 * the digests it takes are therefore identical with host acceleration
 * on or off. When a Telemetry also wants the machine's one sampler
 * slot, an obs::Fanout shares it; on the same interval, both fire on
 * the same simulated-cycle boundaries.
 *
 * Scheduler decisions enter through wrapPolicy(): it decorates any
 * Machine::Scheduler hook so every context the policy hands back is
 * recorded with its instruction-count stamp before the machine sees
 * it.
 */

#ifndef FPC_REPLAY_RECORDER_HH
#define FPC_REPLAY_RECORDER_HH

#include "machine/machine.hh"
#include "replay/record.hh"

namespace fpc::replay
{

class Recorder : public CycleSampler
{
  public:
    Recorder() = default;

    void onSample(const Machine &machine) override { sample(machine); }

    /** Take a digest right now (run bracketing, like
     *  Telemetry::sample). */
    void sample(const Machine &machine);

    /** Record one scheduler decision explicitly. */
    void recordDecision(std::uint64_t step, Word ctx);

    /** Decorate a scheduler hook so its decisions are recorded. */
    Machine::Scheduler wrapPolicy(Machine::Scheduler inner);

    /** Capture the final state. Call at stop, *before* any popValue:
     *  the top-of-stack return value is peeked, not consumed. */
    void finish(const Machine &machine, const RunResult &result);

    /** Begin the next job's record (keeps the finished ones). */
    void beginJob(unsigned id, unsigned worker);

    const JobRecord &current() const { return job_; }
    JobRecord takeJob();

  private:
    JobRecord job_;
};

} // namespace fpc::replay

#endif // FPC_REPLAY_RECORDER_HH
