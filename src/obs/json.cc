#include "obs/json.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "frames/frame_heap.hh"
#include "machine/machine.hh"
#include "memory/cache.hh"
#include "memory/memory.hh"
#include "stats/stats.hh"

namespace fpc::obs
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

void
JsonWriter::indent()
{
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::preValue()
{
    if (keyPending_) {
        keyPending_ = false;
        return;
    }
    if (stack_.empty())
        return;
    if (!stack_.back().first)
        os_ << ",";
    stack_.back().first = false;
    indent();
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    os_ << "{";
    stack_.push_back({false, true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back().array)
        panic("JsonWriter::endObject: not in an object");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    os_ << "[";
    stack_.push_back({true, true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || !stack_.back().array)
        panic("JsonWriter::endArray: not in an array");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (stack_.empty() || stack_.back().array)
        panic("JsonWriter::key outside an object");
    if (!stack_.back().first)
        os_ << ",";
    stack_.back().first = false;
    indent();
    os_ << "\"" << jsonEscape(name) << "\": ";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    preValue();
    os_ << "\"" << jsonEscape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    os_ << jsonNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    preValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    preValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    preValue();
    os_ << "null";
    return *this;
}

// ---------------------------------------------------------------------
// Component exporters
// ---------------------------------------------------------------------

void
distributionJson(JsonWriter &w, const stats::Distribution &d)
{
    w.beginObject();
    w.kv("count", d.count());
    w.kv("total", d.total());
    w.kv("mean", d.mean());
    w.kv("min", d.min());
    w.kv("max", d.max());
    w.kv("stddev", d.stddev());
    w.endObject();
}

void
machineStatsJson(JsonWriter &w, const MachineStats &s)
{
    w.beginObject();
    w.kv("steps", s.steps);
    w.kv("cycles", s.cycles);
    w.kv("calls", s.calls());
    w.kv("returns", s.returns());
    w.kv("totalXfers", s.totalXfers());
    w.kv("fastCallReturnRate", s.fastCallReturnRate());

    w.key("xfers").beginObject();
    for (unsigned k = 0; k < MachineStats::numXferKinds; ++k) {
        w.key(xferKindName(static_cast<XferKind>(k))).beginObject();
        w.kv("count", s.xferCount[k]);
        w.kv("fast", s.xferFast[k]);
        w.key("refs");
        distributionJson(w, s.xferRefs[k]);
        w.key("cycles");
        distributionJson(w, s.xferCycles[k]);
        w.endObject();
    }
    w.endObject();

    w.key("returnStack").beginObject();
    w.kv("hits", s.returnStackHits);
    w.kv("misses", s.returnStackMisses);
    w.kv("flushes", s.returnStackFlushes);
    w.kv("flushedEntries", s.returnStackFlushedEntries);
    w.kv("spills", s.returnStackSpills);
    w.endObject();

    w.key("banks").beginObject();
    w.kv("overflows", s.bankOverflows);
    w.kv("underflows", s.bankUnderflows);
    w.kv("flushWords", s.bankFlushWords);
    w.kv("loadWords", s.bankLoadWords);
    w.kv("diverts", s.bankDiverts);
    w.kv("flaggedFrames", s.flaggedFrames);
    w.endObject();

    w.key("frames").beginObject();
    w.kv("fastAllocs", s.fastFrameAllocs);
    w.kv("slowAllocs", s.slowFrameAllocs);
    w.kv("fastFrees", s.fastFrameFrees);
    w.kv("slowFrees", s.slowFrameFrees);
    w.endObject();

    w.key("accesses").beginObject();
    w.kv("localBank", s.localBankAccesses);
    w.kv("localMem", s.localMemAccesses);
    w.kv("global", s.globalAccesses);
    w.endObject();

    w.kv("preemptions", s.preemptions);

    // Only the opcodes that actually executed, keyed by opcode byte.
    w.key("opCount").beginObject();
    for (unsigned op = 0; op < s.opCount.size(); ++op) {
        if (s.opCount[op] == 0)
            continue;
        w.kv(std::to_string(op), s.opCount[op]);
    }
    w.endObject();

    w.key("instLenCount").beginArray();
    for (const CountT c : s.instLenCount)
        w.value(c);
    w.endArray();

    w.endObject();
}

void
accelStatsJson(JsonWriter &w, const AccelStats &s)
{
    w.beginObject();
    w.key("icache").beginObject();
    w.kv("hits", s.icacheHits);
    w.kv("misses", s.icacheMisses);
    w.kv("hitRate", s.icacheHitRate());
    w.endObject();
    w.key("links").beginObject();
    w.kv("extHits", s.extHits);
    w.kv("extMisses", s.extMisses);
    w.kv("localHits", s.localHits);
    w.kv("localMisses", s.localMisses);
    w.kv("directHits", s.directHits);
    w.kv("directMisses", s.directMisses);
    w.kv("fatHits", s.fatHits);
    w.kv("fatMisses", s.fatMisses);
    w.kv("hitRate", s.linkHitRate());
    w.endObject();
    w.kv("codeFlushes", s.codeFlushes);
    w.kv("tableFlushes", s.tableFlushes);
    w.key("sblocks").beginObject();
    w.kv("builds", s.sblockBuilds);
    w.kv("execs", s.sblockExecs);
    w.kv("chainHits", s.sblockChainHits);
    w.endObject();
    w.key("calls").beginObject();
    w.kv("siteHits", s.callSiteHits);
    w.kv("siteMisses", s.callSiteMisses);
    w.kv("returnPredHits", s.returnPredHits);
    w.kv("returnPredMisses", s.returnPredMisses);
    w.kv("planHits", s.callPlanHits);
    w.kv("planFallbacks", s.callPlanFallbacks);
    w.kv("returnPlanHits", s.returnPlanHits);
    w.kv("returnPlanFallbacks", s.returnPlanFallbacks);
    w.endObject();
    w.endObject();
}

void
memoryStatsJson(JsonWriter &w, const MemoryStats &s)
{
    w.beginObject();
    w.kv("words", std::uint64_t(s.words));
    w.kv("totalRefs", s.totalRefs);
    w.kv("codeByteFetches", s.codeBytes);
    w.key("reads").beginObject();
    for (std::size_t k = 0; k < MemoryStats::numKinds; ++k)
        w.kv(accessKindName(static_cast<AccessKind>(k)), s.reads[k]);
    w.endObject();
    w.key("writes").beginObject();
    for (std::size_t k = 0; k < MemoryStats::numKinds; ++k)
        w.kv(accessKindName(static_cast<AccessKind>(k)), s.writes[k]);
    w.endObject();
    w.endObject();
}

void
heapStatsJson(JsonWriter &w, const FrameHeapStats &s)
{
    w.beginObject();
    w.kv("allocs", s.allocs);
    w.kv("frees", s.frees);
    w.kv("softwareTraps", s.softwareTraps);
    w.kv("retainedSkips", s.retainedSkips);
    w.kv("requestedWords", s.requestedWords);
    w.kv("allocatedWords", s.allocatedWords);
    w.kv("blockWords", s.blockWords);
    w.kv("refsAlloc", s.refsAlloc);
    w.kv("refsFree", s.refsFree);
    w.kv("fragmentation", s.fragmentation());
    w.endObject();
}

void
cacheStatsJson(JsonWriter &w, const Cache &cache)
{
    w.beginObject();
    w.kv("hits", cache.hits());
    w.kv("misses", cache.misses());
    w.kv("writebacks", cache.writebacks());
    w.kv("accesses", cache.accesses());
    w.kv("hitRate", cache.hitRate());
    w.endObject();
}

void
statGroupJson(JsonWriter &w, const stats::StatGroup &group)
{
    w.beginObject();
    w.kv("name", group.name());
    w.key("stats").beginObject();
    group.visit([&w](const std::string &name, const std::string &desc,
                     const stats::Counter *counter,
                     const stats::Distribution *dist,
                     const stats::Histogram *hist) {
        w.key(name).beginObject();
        if (!desc.empty())
            w.kv("desc", desc);
        if (counter != nullptr) {
            w.kv("type", "counter");
            w.kv("value", counter->value());
        } else if (dist != nullptr) {
            w.kv("type", "distribution");
            w.key("value");
            distributionJson(w, *dist);
        } else if (hist != nullptr) {
            w.kv("type", "histogram");
            w.key("value").beginObject();
            w.kv("bucketWidth", hist->bucketWidth());
            w.kv("count", hist->count());
            w.kv("mean", hist->mean());
            w.kv("p50", hist->p50());
            w.kv("p90", hist->p90());
            w.kv("p99", hist->p99());
            w.kv("overflow", hist->overflow());
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i < hist->buckets(); ++i)
                w.value(hist->bucketCount(i));
            w.endArray();
            w.endObject();
        }
        w.endObject();
    });
    w.endObject();
    w.endObject();
}

void
writeStatsJson(std::ostream &os, const StatsExport &exp)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "fpc-stats-v1");
    w.kv("driver", exp.driver);
    if (!exp.impl.empty())
        w.kv("impl", exp.impl);
    if (!exp.stopReason.empty())
        w.kv("stopReason", exp.stopReason);
    if (exp.workers > 0)
        w.kv("workers", exp.workers);

    w.key("machine");
    if (exp.machine != nullptr)
        machineStatsJson(w, *exp.machine);
    else
        w.nullValue();

    w.key("memory");
    if (exp.memory != nullptr)
        memoryStatsJson(w, *exp.memory);
    else
        w.nullValue();

    w.key("heap");
    if (exp.heap != nullptr)
        heapStatsJson(w, *exp.heap);
    else
        w.nullValue();

    w.key("cache");
    if (exp.cache != nullptr)
        cacheStatsJson(w, *exp.cache);
    else
        w.nullValue();

    w.key("accel");
    if (exp.accel != nullptr)
        accelStatsJson(w, *exp.accel);
    else
        w.nullValue();

    w.key("groups").beginArray();
    for (const stats::StatGroup *g : exp.groups) {
        if (g != nullptr)
            statGroupJson(w, *g);
    }
    w.endArray();

    w.endObject();
    os << "\n";
}

} // namespace fpc::obs
