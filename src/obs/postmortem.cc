#include "obs/postmortem.hh"

#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "isa/disasm.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/telemetry.hh"

namespace fpc::obs
{

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        panic("FlightRecorder: capacity must be nonzero");
    ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
FlightRecorder::onXfer(const XferRecord &record, const Machine &)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(record);
    } else {
        ring_[head_] = record;
        head_ = (head_ + 1) % capacity_;
    }
    ++recorded_;
}

std::vector<XferRecord>
FlightRecorder::records() const
{
    std::vector<XferRecord> out;
    out.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
FlightRecorder::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
}

namespace
{

/** Symbolize a PC through the map, "?" when outside any procedure. */
std::string
procNameAt(const ProcMap &map, CodeByteAddr pc)
{
    const std::string *name = map.find(pc);
    return name != nullptr ? *name : std::string("?");
}

/** The placed procedure whose code range contains pc, or null. */
const PlacedProc *
placedProcAt(const LoadedImage &image, CodeByteAddr pc,
             std::string *module_name, std::string *proc_name)
{
    for (const PlacedModule &pm : image.modules()) {
        for (std::size_t i = 0; i < pm.procs.size(); ++i) {
            const PlacedProc &pp = pm.procs[i];
            const CodeByteAddr end =
                pp.prologueAddr + pp.prologueBytes + pp.bodyBytes;
            if (pc >= pp.prologueAddr && pc < end) {
                if (module_name != nullptr)
                    *module_name = pm.src->name;
                if (proc_name != nullptr)
                    *proc_name = pm.src->procs[i].name;
                return &pp;
            }
        }
    }
    return nullptr;
}

/**
 * Disassemble the faulting procedure's body around fault_pc, marking
 * the faulting instruction with "=>". Falls back to a note when the
 * PC lies outside every known procedure (e.g. a stop before start).
 */
void
writeDisasmWindow(std::ostream &os, const Machine &machine,
                  const LoadedImage &image, CodeByteAddr fault_pc,
                  unsigned window_bytes)
{
    std::string module_name, proc_name;
    const PlacedProc *pp =
        placedProcAt(image, fault_pc, &module_name, &proc_name);
    if (pp == nullptr) {
        os << "; fault pc " << fault_pc
           << " is outside every loaded procedure\n";
        return;
    }

    const CodeByteAddr body = pp->prologueAddr + pp->prologueBytes;
    std::vector<std::uint8_t> code(pp->bodyBytes);
    for (unsigned i = 0; i < pp->bodyBytes; ++i)
        code[i] = machine.memory().peekByte(body + i);

    os << "; " << module_name << "." << proc_name << " at " << body
       << " (" << pp->bodyBytes << " body bytes, fsi " << pp->fsi
       << ")\n";

    const CodeByteAddr lo =
        fault_pc > window_bytes ? fault_pc - window_bytes : 0;
    const CodeByteAddr hi = fault_pc + window_bytes;
    bool elided = false;
    for (const isa::DisasmLine &line : isa::disassemble(code)) {
        const CodeByteAddr addr =
            body + static_cast<CodeByteAddr>(line.offset);
        if (addr < lo || addr > hi) {
            if (!elided) {
                os << "   ...\n";
                elided = true;
            }
            continue;
        }
        elided = false;
        os << (addr == fault_pc ? "=> " : "   ") << addr << ": "
           << line.text << "\n";
    }
}

} // namespace

bool
writePostmortem(const PostmortemConfig &config, const Machine &machine,
                const RunResult &result, const LoadedImage &image,
                const FlightRecorder &recorder,
                const Telemetry *telemetry)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(config.dir, ec);
    if (ec) {
        warn("postmortem: cannot create {}: {}", config.dir,
             ec.message());
        return false;
    }

    const std::string disasm_name = config.filePrefix + "disasm.txt";
    const fs::path json_path =
        fs::path(config.dir) / (config.filePrefix + "postmortem.json");
    const fs::path disasm_path = fs::path(config.dir) / disasm_name;

    const ProcMap map(image);
    const CodeByteAddr fault_pc = machine.lastInstStart();

    std::ofstream js(json_path);
    if (!js) {
        warn("postmortem: cannot write {}", json_path.string());
        return false;
    }

    JsonWriter w(js);
    w.beginObject();
    w.kv("schema", "fpc-postmortem-v1");
    w.kv("driver", config.driver);
    w.kv("impl", config.impl);

    w.key("stop").beginObject();
    w.kv("reason", stopReasonName(result.reason));
    w.kv("message", result.message);
    w.kv("steps", result.steps);
    w.kv("cycles", static_cast<std::uint64_t>(machine.cycles()));
    w.endObject();

    w.key("fault").beginObject();
    w.kv("pc", static_cast<std::uint64_t>(fault_pc));
    w.kv("nextPc", static_cast<std::uint64_t>(machine.pc()));
    w.kv("proc", procNameAt(map, fault_pc));
    w.kv("frame", static_cast<std::uint64_t>(machine.currentFrame()));
    w.endObject();

    // Innermost first: the faulting activation, then the shadow stack
    // (whose top duplicates the faulting activation's entry) outward.
    w.key("backtrace").beginArray();
    const std::vector<ShadowFrame> &shadow = machine.shadowStack();
    for (std::size_t i = shadow.size(); i-- > 0;) {
        const ShadowFrame &f = shadow[i];
        w.beginObject();
        w.kv("pc", static_cast<std::uint64_t>(f.pc));
        w.kv("frame", static_cast<std::uint64_t>(f.frame));
        w.kv("proc", procNameAt(map, f.pc));
        w.endObject();
    }
    w.endArray();

    w.key("xferRing").beginObject();
    w.kv("capacity", static_cast<std::uint64_t>(recorder.capacity()));
    w.kv("recorded", recorder.recorded());
    w.key("records").beginArray();
    for (const XferRecord &r : recorder.records()) {
        w.beginObject();
        w.kv("kind", xferKindName(r.kind));
        w.kv("pc", static_cast<std::uint64_t>(r.pc));
        w.kv("proc", procNameAt(map, r.pc));
        w.kv("frame", static_cast<std::uint64_t>(r.frame));
        w.kv("srcCtx", static_cast<std::uint64_t>(r.srcCtx));
        w.kv("dstCtx", static_cast<std::uint64_t>(r.dstCtx));
        w.kv("start", static_cast<std::uint64_t>(r.start));
        w.kv("end", static_cast<std::uint64_t>(r.end));
        w.kv("refs", r.refs);
        w.kv("step", r.step);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("machine");
    machineStatsJson(w, machine.stats());

    const FrameHeap &heap = machine.heap();
    w.key("heap");
    heapStatsJson(w, heap.stats());
    w.key("av").beginObject();
    w.key("freeFrames").beginArray();
    for (unsigned c = 0; c < heap.classes().numClasses(); ++c)
        w.value(heap.freeListLength(c));
    w.endArray();
    w.kv("regionRemaining",
         static_cast<std::uint64_t>(heap.regionRemaining()));
    w.endObject();

    // The last telemetry snapshot, when a sampler was attached: the
    // gauges as they stood at the final interval before the stop. The
    // stamps are the job's own: a worker's series lays its jobs end
    // to end, so drop the bases the earlier jobs left.
    w.key("finalSample");
    if (telemetry != nullptr && telemetry->recorded() > 0) {
        const std::vector<MetricsSample> samples = telemetry->samples();
        const MetricsSample &s = samples.back();
        w.beginObject();
        w.kv("cycles", static_cast<std::uint64_t>(s.cycles -
                                                  telemetry->base()));
        w.kv("steps", s.steps - telemetry->stepBase());
        w.kv("liveFrames", s.liveFrames);
        w.kv("fragmentation", s.fragmentation);
        w.kv("returnStackDepth", s.returnStackDepth);
        w.kv("banksResident", s.banksResident);
        w.endObject();
    } else {
        w.nullValue();
    }

    w.kv("disasmFile", disasm_name);
    w.endObject();
    js << "\n";
    if (!js) {
        warn("postmortem: write failed for {}", json_path.string());
        return false;
    }

    std::ofstream ds(disasm_path);
    if (!ds) {
        warn("postmortem: cannot write {}", disasm_path.string());
        return false;
    }
    writeDisasmWindow(ds, machine, image, fault_pc,
                      config.disasmWindowBytes);
    return static_cast<bool>(ds);
}

} // namespace fpc::obs
