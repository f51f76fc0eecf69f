/**
 * @file
 * A minimal streaming JSON writer plus the stable-schema exporters
 * for the simulator's statistics ("fpc-stats-v1").
 *
 * The paper's whole argument is quantitative; these exporters are how
 * the numbers leave the simulator in machine-readable form instead of
 * dying in a text table. The schema is append-only by convention: new
 * keys may be added, existing keys keep their meaning, and breaking
 * changes bump the "schema" string.
 */

#ifndef FPC_OBS_JSON_HH
#define FPC_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace fpc
{
struct MachineStats;
struct AccelStats;
struct MemoryStats;
struct FrameHeapStats;
class Cache;
} // namespace fpc

namespace fpc::stats
{
class StatGroup;
class Distribution;
} // namespace fpc::stats

namespace fpc::obs
{

/** Escape a string for inclusion inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/** Deterministic number rendering (no NaN/Inf; "%.12g"-shaped). */
std::string jsonNumber(double v);

/**
 * A small streaming JSON writer: explicit begin/end nesting, automatic
 * comma placement, two-space indentation. Values are written in call
 * order, so output is deterministic for deterministic inputs.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next value/begin* call is its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v) { return value(std::uint64_t(v)); }
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &nullValue();

    template <typename T>
    JsonWriter &
    kv(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    void preValue();
    void indent();

    std::ostream &os_;
    struct Level
    {
        bool array = false;
        bool first = true;
    };
    std::vector<Level> stack_;
    bool keyPending_ = false;
};

/** @name Component exporters: each writes one JSON value. @{ */
void distributionJson(JsonWriter &w, const stats::Distribution &d);
void machineStatsJson(JsonWriter &w, const MachineStats &s);
void accelStatsJson(JsonWriter &w, const AccelStats &s);
void memoryStatsJson(JsonWriter &w, const MemoryStats &s);
void heapStatsJson(JsonWriter &w, const FrameHeapStats &s);
void cacheStatsJson(JsonWriter &w, const Cache &cache);
void statGroupJson(JsonWriter &w, const stats::StatGroup &group);
/** @} */

/**
 * Everything one driver run wants exported. Null members are emitted
 * as JSON null, so consumers see a fixed key set.
 */
struct StatsExport
{
    std::string driver;          ///< "fpcvm" | "fpcrun" | test name
    std::string impl;            ///< implName() of the machine config
    std::string stopReason;      ///< stopReasonName() (single runs)
    unsigned workers = 0;        ///< worker count (batch runs)
    const MachineStats *machine = nullptr;
    const MemoryStats *memory = nullptr;
    const FrameHeapStats *heap = nullptr;
    const Cache *cache = nullptr;
    /** Host-acceleration counters. Left null unless explicitly
     *  requested (fpcvm --accel-stats): the default export must stay
     *  byte-identical with acceleration on or off, and these counters
     *  are the one thing that legitimately differs. */
    const AccelStats *accel = nullptr;
    std::vector<const stats::StatGroup *> groups;
};

/** Write the full "fpc-stats-v1" document. */
void writeStatsJson(std::ostream &os, const StatsExport &exp);

} // namespace fpc::obs

#endif // FPC_OBS_JSON_HH
