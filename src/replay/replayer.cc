#include "replay/replayer.hh"

#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/strfmt.hh"
#include "lang/codegen.hh"
#include "machine/digest.hh"
#include "machine/machine.hh"
#include "memory/memory.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"
#include "replay/recorder.hh"

namespace fpc::replay
{

/** One replay execution's knobs. */
struct Replayer::ExecSpec
{
    Impl impl = Impl::Mesa;
    bool accel = true;
    /** Collect per-XFER digests of this scope inside the window. */
    bool perXfer = false;
    DigestScope xferScope = DigestScope::Full;
    std::uint64_t windowBegin = 0;
    std::uint64_t windowEnd = std::numeric_limits<std::uint64_t>::max();
    /** Keep a transfer ring for the divergence bundle. */
    bool keepRing = false;
};

/** What one replay execution produced. */
struct Replayer::ExecOutcome
{
    JobRecord replayed; ///< samples + final, recorded protocol
    std::vector<XferDigester::Entry> xferDigests;
    std::vector<XferRecord> ring;
    bool decisionOverrun = false;
    bool decisionMismatch = false;
    std::uint64_t imageHash = 0;
};

Replayer::Replayer(RecordLog log) : log_(std::move(log))
{
    modules_ = lang::compile(log_.source);
}

Replayer::ExecOutcome
Replayer::executeJob(const JobRecord &job, const ExecSpec &spec)
{
    ExecOutcome out;

    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules_)
        loader.add(m);
    LinkPlan plan;
    plan.lowering = log_.lowering;
    plan.shortCalls = log_.shortCalls;
    const LoadedImage image = loader.load(mem, plan);
    // Hash at the same point the recorder did: after the loader, and
    // before the Machine exists (its FrameHeap rewrites the AV).
    out.imageHash = imageHash(mem, image);

    MachineConfig config;
    config.impl = spec.impl;
    config.numBanks = log_.banks;
    config.timesliceSteps = log_.timeslice;
    config.accel.enabled = spec.accel;
    Machine machine(mem, image, config);

    obs::Fanout fanout;
    XferDigester digester(spec.xferScope, spec.windowBegin,
                          spec.windowEnd);
    if (spec.perXfer)
        fanout.add(&digester);
    obs::FlightRecorder flight;
    if (spec.keepRing)
        fanout.add(&flight);

    // The replayed stream follows the recording protocol exactly:
    // sampler attached before start, one bracket sample after start,
    // interval samples during run, final captured before any pop.
    Recorder collector;
    collector.beginJob(job.id, job.worker);
    fanout.add(&collector, log_.interval);
    fanout.attach(machine);

    // Forced decisions: the recorded contexts, in order, with their
    // step stamps cross-checked. A live-policy fallback past the end
    // of the log is an overrun — reported even if digests match.
    std::size_t next = 0;
    if (log_.timeslice > 0 || !job.decisions.empty()) {
        machine.setScheduler([this, &job, &next, &out](Machine &m) {
            if (next < job.decisions.size()) {
                const Decision &d = job.decisions[next++];
                if (d.step != m.stats().steps)
                    out.decisionMismatch = true;
                return d.ctx;
            }
            out.decisionOverrun = true;
            return m.currentFrameContext();
        });
    }

    machine.start(log_.entryModule, log_.entryProc, log_.args);
    collector.sample(machine);
    const RunResult result = machine.run();
    collector.finish(machine, result);
    if (next < job.decisions.size())
        out.decisionMismatch = true; // recorded decisions left unused

    out.replayed = collector.takeJob();
    if (spec.perXfer)
        out.xferDigests = digester.entries();
    if (spec.keepRing)
        out.ring = flight.records();
    return out;
}

namespace
{

/** First index where the recorded and replayed streams disagree, or
 *  npos when they match (stamps and digests both). */
std::size_t
firstMismatch(const std::vector<Sample> &recorded,
              const std::vector<Sample> &replayed)
{
    const std::size_t n = std::min(recorded.size(), replayed.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (recorded[i].steps != replayed[i].steps ||
            recorded[i].cycles != replayed[i].cycles ||
            recorded[i].digest != replayed[i].digest)
            return i;
    }
    if (recorded.size() != replayed.size())
        return n;
    return std::string::npos;
}

bool
finalMatches(const Final &a, const Final &b)
{
    return a.reason == b.reason && a.steps == b.steps &&
           a.cycles == b.cycles && a.digest == b.digest &&
           a.value == b.value;
}

void
finalJson(obs::JsonWriter &w, const Final &f)
{
    w.beginObject()
        .kv("reason", f.reason)
        .kv("steps", f.steps)
        .kv("cycles", f.cycles)
        .kv("digest", digestHex(f.digest))
        .kv("value", std::uint64_t(f.value))
        .kv("pc", f.pc)
        .kv("lf", f.lf)
        .kv("gf", f.gf)
        .kv("sp", std::uint64_t(f.sp))
        .kv("heapLive", f.heapLive)
        .kv("heapAllocs", f.heapAllocs)
        .kv("heapFrees", f.heapFrees)
        .endObject();
}

void
sampleStreamJson(obs::JsonWriter &w, const std::vector<Sample> &samples,
                 std::size_t begin, std::size_t end)
{
    w.beginArray();
    for (std::size_t i = begin; i < end && i < samples.size(); ++i) {
        w.beginObject()
            .kv("steps", samples[i].steps)
            .kv("cycles", samples[i].cycles)
            .kv("digest", digestHex(samples[i].digest))
            .endObject();
    }
    w.endArray();
}

} // namespace

Divergence
Replayer::diagnose(const JobRecord &job, Divergence divergence,
                   const VerifyOptions &options)
{
    // Bisect: re-run the suspect window twice at per-XFER granularity.
    // Agreement means the replay side is deterministic and the
    // recording carries the divergent bytes; disagreement pinpoints
    // the exact transfer where two replays part ways.
    ExecSpec spec;
    spec.impl = log_.impl;
    spec.accel = options.accelOverride.value_or(log_.accel);
    spec.perXfer = true;
    spec.xferScope = DigestScope::Full;
    spec.windowBegin = divergence.windowBeginStep;
    spec.windowEnd = divergence.windowEndStep;
    spec.keepRing = true;
    const ExecOutcome a = executeJob(job, spec);
    const ExecOutcome b = executeJob(job, spec);

    divergence.bisected = true;
    divergence.selfConsistent = true;
    const std::size_t n = std::min(a.xferDigests.size(),
                                   b.xferDigests.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a.xferDigests[i].digest != b.xferDigests[i].digest ||
            a.xferDigests[i].step != b.xferDigests[i].step) {
            divergence.selfConsistent = false;
            divergence.divergentStep = a.xferDigests[i].step;
            break;
        }
    }
    if (divergence.selfConsistent &&
        a.xferDigests.size() != b.xferDigests.size())
        divergence.selfConsistent = false;

    divergence.detail =
        divergence.selfConsistent
            ? strfmt("job {}: replay is self-consistent over steps "
                     "[{}, {}]; the recording itself diverges at "
                     "sample {} (recorded {}, replayed {})",
                     divergence.job, divergence.windowBeginStep,
                     divergence.windowEndStep, divergence.sampleIndex,
                     digestHex(divergence.recordedDigest),
                     digestHex(divergence.replayedDigest))
            : strfmt("job {}: replays disagree at step {} inside "
                     "[{}, {}] — nondeterministic execution",
                     divergence.job, divergence.divergentStep,
                     divergence.windowBeginStep,
                     divergence.windowEndStep);

    if (options.divergenceDir.empty())
        return divergence;

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options.divergenceDir, ec);
    if (ec) {
        warn("cannot create divergence dir {}: {}",
             options.divergenceDir, ec.message());
        return divergence;
    }
    const std::string path =
        options.divergenceDir +
        strfmt("/job-{}-divergence.json", divergence.job);
    std::ofstream os(path);
    if (!os) {
        warn("cannot write {}", path);
        return divergence;
    }

    // The extended fpc-postmortem-v1 bundle: what was recorded, what
    // replayed, and where they part ways.
    obs::JsonWriter w(os);
    w.beginObject()
        .kv("schema", "fpc-postmortem-v1")
        .kv("kind", "replay-divergence")
        .kv("driver", "fpcreplay")
        .kv("impl", implName(log_.impl))
        .kv("job", std::uint64_t(divergence.job))
        .kv("sampleIndex", std::uint64_t(divergence.sampleIndex))
        .kv("finalMismatch", divergence.finalMismatch)
        .kv("windowBeginStep", divergence.windowBeginStep)
        .kv("windowEndStep", divergence.windowEndStep)
        .kv("recordedDigest",
            digestHex(divergence.recordedDigest))
        .kv("replayedDigest",
            digestHex(divergence.replayedDigest))
        .kv("selfConsistent", divergence.selfConsistent);
    if (divergence.selfConsistent)
        w.key("divergentStep").nullValue();
    else
        w.kv("divergentStep", divergence.divergentStep);

    w.key("recordedFinal");
    finalJson(w, job.final);
    w.key("replayedFinal");
    finalJson(w, a.replayed.final);

    // The digest streams around the divergence, recorded vs replayed.
    const std::size_t lo =
        divergence.sampleIndex > 2 ? divergence.sampleIndex - 2 : 0;
    const std::size_t hi = divergence.sampleIndex + 3;
    w.key("recordedSamples");
    sampleStreamJson(w, job.samples, lo, hi);
    w.key("replayedSamples");
    sampleStreamJson(w, a.replayed.samples, lo, hi);

    // Per-XFER digests inside the window (replay A), and the window's
    // transfer ring — kind/contexts/pc per transfer.
    w.key("xferDigests").beginArray();
    for (const auto &e : a.xferDigests) {
        w.beginObject()
            .kv("step", e.step)
            .kv("digest", digestHex(e.digest))
            .endObject();
    }
    w.endArray();
    w.key("xferRing").beginArray();
    for (const XferRecord &r : a.ring) {
        if (r.step < divergence.windowBeginStep ||
            r.step > divergence.windowEndStep)
            continue;
        w.beginObject()
            .kv("step", r.step)
            .kv("kind", xferKindName(r.kind))
            .kv("srcCtx", std::uint64_t(r.srcCtx))
            .kv("dstCtx", std::uint64_t(r.dstCtx))
            .kv("frame", std::uint64_t(r.frame))
            .kv("pc", std::uint64_t(r.pc))
            .endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    divergence.bundlePath = path;
    return divergence;
}

VerifyResult
Replayer::verify(const VerifyOptions &options)
{
    VerifyResult result;
    ExecSpec spec;
    spec.impl = log_.impl;
    spec.accel = options.accelOverride.value_or(log_.accel);

    for (const JobRecord &job : log_.jobs) {
        const ExecOutcome out = executeJob(job, spec);
        if (out.imageHash != log_.imageHash) {
            Divergence d;
            d.job = job.id;
            d.detail = strfmt(
                "job {}: image hash mismatch (recorded {}, "
                "replayed {}) — program or loader changed",
                job.id, digestHex(log_.imageHash),
                digestHex(out.imageHash));
            d.recordedDigest = log_.imageHash;
            d.replayedDigest = out.imageHash;
            result.divergence = d;
            return result;
        }
        result.decisionOverrun |=
            out.decisionOverrun || out.decisionMismatch;

        const std::size_t mismatch =
            firstMismatch(job.samples, out.replayed.samples);
        if (mismatch != std::string::npos) {
            Divergence d;
            d.job = job.id;
            d.sampleIndex = mismatch;
            d.windowBeginStep =
                mismatch == 0 ? 0 : job.samples[mismatch - 1].steps + 1;
            d.windowEndStep = mismatch < job.samples.size()
                                  ? job.samples[mismatch].steps
                                  : job.final.steps;
            if (mismatch < job.samples.size())
                d.recordedDigest = job.samples[mismatch].digest;
            if (mismatch < out.replayed.samples.size())
                d.replayedDigest = out.replayed.samples[mismatch].digest;
            result.divergence = diagnose(job, d, options);
            return result;
        }
        if (!finalMatches(job.final, out.replayed.final)) {
            Divergence d;
            d.job = job.id;
            d.finalMismatch = true;
            d.sampleIndex = job.samples.size();
            d.windowBeginStep =
                job.samples.empty()
                    ? 0
                    : job.samples.back().steps + 1;
            d.windowEndStep = job.final.steps;
            d.recordedDigest = job.final.digest;
            d.replayedDigest = out.replayed.final.digest;
            result.divergence = diagnose(job, d, options);
            return result;
        }
        ++result.jobsChecked;
        result.samplesChecked += job.samples.size() + 1;
    }
    result.ok = !result.decisionOverrun;
    return result;
}

DivergeResult
Replayer::diverge(Impl other)
{
    if (log_.jobs.empty())
        fatal("diverge: recording has no jobs");
    const JobRecord &job = log_.jobs.front();

    ExecSpec spec;
    spec.accel = log_.accel;
    spec.perXfer = true;
    spec.xferScope = DigestScope::Arch;
    spec.impl = log_.impl;
    const ExecOutcome base = executeJob(job, spec);
    spec.impl = other;
    const ExecOutcome alt = executeJob(job, spec);

    DivergeResult result;
    const auto &a = base.xferDigests;
    const auto &b = alt.xferDigests;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].digest != b[i].digest) {
            result.xferIndex = i;
            result.step = a[i].step;
            result.baseDigest = a[i].digest;
            result.otherDigest = b[i].digest;
            result.xfersCompared = i;
            return result;
        }
    }
    result.xfersCompared = n;
    if (a.size() != b.size()) {
        result.countMismatch = true;
        result.xferIndex = n;
        return result;
    }
    result.equivalent = true;
    return result;
}

} // namespace fpc::replay
