#include "obs/sampled_profile.hh"

#include <algorithm>

namespace fpc::obs
{

void
SampledProfile::merge(const SampledProfile &other)
{
    for (const auto &[name, n] : other.samples)
        samples[name] += n;
    total += other.total;
    recorded += other.recorded;
    dropped += other.dropped;
}

double
SampledProfile::share(const std::string &name) const
{
    if (total == 0)
        return 0.0;
    auto it = samples.find(name);
    if (it == samples.end())
        return 0.0;
    return static_cast<double>(it->second) /
           static_cast<double>(total);
}

stats::Table
SampledProfile::topTable(std::size_t top_n) const
{
    std::vector<std::pair<std::string, CountT>> rows(samples.begin(),
                                                     samples.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);

    stats::Table table({"procedure", "samples", "share %"});
    for (const auto &[name, n] : rows) {
        table.row(name, n,
                  stats::percent(
                      total ? static_cast<double>(n) /
                                  static_cast<double>(total)
                            : 0.0));
    }
    return table;
}

void
SampledProfile::writeFolded(std::ostream &os) const
{
    for (const auto &[name, n] : samples)
        os << name << " " << n << "\n";
}

SampledProfiler::SampledProfiler(const LoadedImage &image,
                                 std::size_t capacity)
    : map_(image), capacity_(std::max<std::size_t>(1, capacity))
{
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
SampledProfiler::onSample(const Machine &machine)
{
    Sample s;
    s.cycles = machine.stats().cycles;
    s.steps = machine.stats().steps;
    s.pc = machine.pc();
    s.procEntry = machine.currentProcEntry();
    s.anchorPc = machine.boundaryAnchorPc();
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(s);
        return;
    }
    ring_[head_] = s;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

SampledProfile
SampledProfiler::finish()
{
    SampledProfile out;
    out.recorded = recorded_;
    out.dropped = dropped_;
    for (const Sample &s : ring_) {
        // Threaded boundaries land just *after* a block's terminal
        // XFER, so the block-entry anchor — inside the procedure that
        // spent the cycles — beats both the shadow top-frame register
        // and the raw PC, which already point at the transfer's
        // destination. Off the threaded path the anchor is 0: the
        // shadow register gives call-boundary-exact attribution, and
        // when cold (return-stack returns do not restore it) the raw
        // PC still resolves through the ProcMap.
        const CodeByteAddr at =
            s.anchorPc != 0
                ? s.anchorPc
                : (s.procEntry != 0 ? s.procEntry : s.pc);
        const std::string *name = map_.find(at);
        out.samples[name != nullptr ? *name : idleProcName] += 1;
        ++out.total;
    }
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    return out;
}

} // namespace fpc::obs
