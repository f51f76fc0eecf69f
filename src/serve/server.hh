/**
 * @file
 * The serving runtime: a persistent, multi-tenant front end over
 * sched::Runtime's execution slots.
 *
 * A Server owns a listening TCP socket and workers + 1 serving
 * threads in a leader/followers arrangement over one epoll set (the
 * listening socket, a wake pipe and every connection). The leader
 * waits in epoll_wait, accepts, and reads every complete
 * fpc-serve-v1 frame that is ready; it answers PING, SCRAPE and PROBE
 * itself. Jobs pass through three stages:
 *
 *   admission — bounded: a global queue cap, a per-tenant queue cap,
 *       and a per-tenant simulated-cycle quota per time window. Over
 *       any limit the client gets an explicit backpressure reply
 *       (REJECTED / OVER_QUOTA with a retry-after hint) instead of an
 *       unbounded queue;
 *   dispatch — deficit-round-robin across tenants (see
 *       DrrDispatcher), so a flooding tenant cannot starve the
 *       others: dispatch share follows configured weights, not
 *       arrival counts. When a pick finds a free execution slot, the
 *       leader promotes a follower to leader and runs the job on its
 *       own thread: the job starts on the thread that read it;
 *   completion — the thread that ran the job sends the result frame
 *       on the job's connection (replies are pipelined and may
 *       complete out of order; the request id correlates), then
 *       makes the next DRR pick itself before it rejoins the
 *       followers.
 *
 * At most `workers` threads run jobs, so one thread is always free to
 * lead: admission, SCRAPE and PING keep answering while every slot is
 * busy.
 *
 * drain() implements graceful shutdown: stop accepting, let admitted
 * jobs finish, answer late submits with DRAINING; stop() then joins
 * the serving threads. scrapeText() exposes queue depth, per-tenant
 * gauges and job-latency percentiles as a strict OpenMetrics
 * exposition at any moment while serving.
 */

#ifndef FPC_SERVE_SERVER_HH
#define FPC_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sched/runtime.hh"
#include "serve/protocol.hh"
#include "serve/tenant.hh"
#include "stats/stats.hh"

namespace fpc::serve
{

struct ServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back via port()
    unsigned workers = 2;
    MachineConfig machine;
    LinkPlan plan;

    /** Jobs admitted but not yet dispatched, across all tenants.
     *  The `workers` execution slots bound the jobs running. */
    std::size_t queueCapacity = 256;

    TenantConfig defaultTenant;
    std::map<std::string, TenantConfig> tenants;
    std::uint64_t quotaWindowMs = 1000;

    /** Job-latency histogram shape (milliseconds, admission to
     *  completion). */
    double latencyBucketMs = 0.25;
    std::size_t latencyBuckets = 1024;

    /** Machine-level telemetry per worker (exported after stop()). */
    bool metrics = false;
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;
    /** Clock the telemetry off boundary samples (bounded-slop
     *  stamps) so accelerated workers keep their fast paths; see
     *  sched::RuntimeConfig::metricsSampled. */
    bool metricsSampled = false;

    /** Request-scoped span tracing (see obs::SpanCollector): every
     *  SUBMIT grows a request ⊃ admission/queued/dispatch/execute/
     *  reply tree, exported after stop() via writeSpansLog /
     *  writeSpansTrace. Host-time only: simulated stats and metrics
     *  are byte-identical with spans on or off. */
    bool spans = false;
    std::size_t spansCapacity = obs::SpanCollector::defaultCapacity;

    /** Per-slot XFER tracing (embedded into
     *  writeSpansTrace alongside the serve spans). */
    bool trace = false;
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;

    /** When nonempty, failed jobs write postmortem bundles here and
     *  the result reply carries the bundle path. */
    std::string postmortemDir;

    /** Probe specs attached before start() (--probe=); clients can
     *  attach/detach/read more at runtime via the PROBE op. */
    std::vector<std::string> probeSpecs;

    std::string driver = "fpcserve";
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Register a named program clients can SUBMIT by name instead of
     *  shipping source. Call before start(). */
    void addProgram(const std::string &name,
                    std::shared_ptr<const std::vector<Module>> modules);

    /** Bind, listen, open the execution slots and bring up the
     *  workers + 1 serving threads. Throws FatalError when the address
     *  is unusable. */
    void start();

    /** The bound port (after start(); resolves port 0). */
    std::uint16_t port() const { return port_; }

    /** Graceful shutdown, phase one: stop accepting connections,
     *  answer new SUBMITs with DRAINING, block until every admitted
     *  job has completed and replied. Idempotent. */
    void drain();

    /** drain(), then join the serving threads and fold the slots'
     *  counters. The telemetry exports below are valid afterwards.
     *  Idempotent; also run by the destructor. */
    void stop();

    bool draining() const;

    /** The server-level OpenMetrics exposition (live at any point
     *  while serving — this is what SCRAPE returns). */
    std::string scrapeText() const;

    /** @name Span exports (ServerConfig::spans).
     *  The collector is live while serving; the log/trace writers and
     *  spanFaults() are meant for after stop(), which runs the
     *  well-bracketing checker (writing a span-bracketing postmortem
     *  bundle into postmortemDir on any fault). @{ */
    const obs::SpanCollector *spanCollector() const
    {
        return spans_.get();
    }
    void writeSpansLog(std::ostream &os) const;
    /** Perfetto JSON: serve tracks, plus the per-worker XFER tracks
     *  when ServerConfig::trace is on. */
    void writeSpansTrace(std::ostream &os) const;
    const std::vector<obs::SpanFault> &spanFaults() const
    {
        return spanFaults_;
    }
    /** @} */

    /** @name Machine-level telemetry (valid after stop() when
     *  ServerConfig::metrics was set). @{ */
    void writeMetricsJson(std::ostream &os) const;
    void writeOpenMetrics(std::ostream &os) const;
    /** @} */

    const sched::Runtime &runtime() const { return *runtime_; }

    /** The live probe registry (attach/detach/read; fpc-probes-v1 via
     *  ProbeRegistry::writeJson). Valid from construction. */
    obs::ProbeRegistry &probes() { return probes_; }
    const obs::ProbeRegistry &probes() const { return probes_; }

    /** @name Totals for drivers and tests. @{ */
    std::uint64_t jobsCompleted() const;
    std::uint64_t jobsRejected() const;
    std::uint64_t connectionsAccepted() const { return accepted_; }
    const stats::Histogram &latencyHistogram() const
    {
        return latency_;
    }
    /** @} */

  private:
    /** One client connection. The thread that ran a job and the
     *  leader answering a request both write frames; writeMutex
     *  serializes them. Only the leader reads (inbuf). The fd closes
     *  when the last reference drops. */
    struct Conn
    {
        ~Conn();
        int fd = -1;
        std::mutex writeMutex;
        std::atomic<bool> open{true};
        std::uint32_t track = 0; ///< span Connection-track index
        std::string inbuf;       ///< bytes of frames not yet complete
    };

    /** An admitted job waiting in its tenant's queue. */
    struct Pending
    {
        std::uint32_t reqId = 0;
        std::shared_ptr<Conn> conn;
        std::string tenant;
        sched::Job job;
        std::chrono::steady_clock::time_point admitted;
        std::int64_t admittedNs = 0; ///< nowNs() at admission
        std::uint64_t requestId = 0; ///< server-assigned span id
        std::uint64_t traceId = 0;   ///< client correlation id
        std::uint32_t spanTenant = obs::noTenant;
    };

    struct TenantState
    {
        TenantConfig config;
        TenantCounters counters;
        std::deque<Pending> pending;

        /** Latency attribution (milliseconds), sampled per completed
         *  request whether or not span collection is on. */
        stats::Histogram queueWait; ///< admission → execution start
        stats::Histogram execute;   ///< execution start → end
        stats::Histogram reply;     ///< execution end → reply sent

        /** SLO bookkeeping (TenantConfig::sloMs). Window counters
         *  roll with the quota window; the burn rate smooths over the
         *  previous window plus the current one. */
        std::uint64_t sloGood = 0;
        std::uint64_t sloBad = 0;
        std::uint64_t windowGood = 0;
        std::uint64_t windowBad = 0;
        std::uint64_t prevWindowGood = 0;
        std::uint64_t prevWindowBad = 0;

        std::uint32_t spanTenant = obs::noTenant;
    };

    /** One serving thread: lead when no one does, run the job the
     *  lead yields, repeat until stop(). It prefers slot `home`. */
    void serveLoop(unsigned home);
    /** Wait for and read requests until a DRR pick finds a free slot
     *  (true: `job` runs in `slot`, which on entry names the slot to
     *  prefer) or stop() (false). Leadership is handed off either
     *  way. */
    bool lead(Pending &job, unsigned &slot);
    void handleEvent(int fd);
    void acceptConns();
    /** Read what fd has and handle every complete frame; false when
     *  the connection must close (EOF, error, an over-long frame). */
    bool readConn(const std::shared_ptr<Conn> &conn);
    void closeConn(const std::shared_ptr<Conn> &conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     std::string_view payload);
    void handleSubmit(const std::shared_ptr<Conn> &conn,
                      SubmitRequest &&req);
    void handleProbe(const std::shared_ptr<Conn> &conn,
                     const ProbeRequest &req);
    /** Run job in slot, reply, and keep going while the DRR pick
     *  finds more. */
    void runJobs(unsigned slot, Pending job);
    /** Book and send job's result; true when the next DRR pick went
     *  to this slot (then `job` holds it). */
    bool finishJob(unsigned slot, Pending &job, sched::JobResult r);
    std::shared_ptr<const std::vector<Module>>
    resolveModules(const SubmitRequest &req, std::string &err);

    /** Take the next job in DRR order onto slot. Caller holds
     *  mutex_. */
    bool pickLocked(unsigned slot, Pending &out);
    void rollWindowLocked();
    TenantState &tenantLocked(const std::string &name);
    std::uint32_t retryAfterLocked() const;
    void updateGaugesLocked();
    void sendReply(const std::shared_ptr<Conn> &conn,
                   const Reply &reply);
    static double burnRate(const TenantState &t);
    void updateTenantGaugesLocked();
    void checkSpansAtStop();

    ServerConfig config_;
    /** Lives above runtime_ so every in-flight engine folds before
     *  the registry dies. */
    obs::ProbeRegistry probes_;
    std::unique_ptr<sched::Runtime> runtime_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    int wakePipe_[2] = {-1, -1};
    int epollFd_ = -1;
    std::vector<std::thread> threads_;

    // Leader-only: the current leader is the one thread that touches
    // these (the leader hand-off under leaderMutex_ orders them).
    std::map<int, std::shared_ptr<Conn>> conns_;
    bool listening_ = false; ///< listenFd_ is in the epoll set

    std::mutex leaderMutex_;
    std::condition_variable leaderCv_; ///< leadership free, or stop
    bool hasLeader_ = false;           ///< under leaderMutex_
    std::atomic<bool> stopping_{false}; ///< set under leaderMutex_

    // Serving state, under mutex_.
    mutable std::mutex mutex_;
    std::condition_variable drainedCv_;
    std::map<std::string, TenantState> tenants_;
    DrrDispatcher drr_;
    std::size_t queuedTotal_ = 0;
    unsigned inFlight_ = 0;
    std::vector<unsigned> freeSlots_; ///< idle slots, warmest last
    bool draining_ = false;
    bool started_ = false;
    bool stopped_ = false;
    std::uint64_t jobsSubmitted_ = 0;
    std::uint64_t jobsCompleted_ = 0;
    std::uint64_t jobsFailed_ = 0;
    std::uint64_t rejectedQueue_ = 0;
    std::uint64_t rejectedQuota_ = 0;
    std::uint64_t rejectedDraining_ = 0;
    std::uint64_t badRequests_ = 0;
    stats::Histogram latency_;
    std::chrono::steady_clock::time_point windowStart_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> nextRequestId_{1};
    std::atomic<std::uint32_t> nextConnTrack_{0};

    std::unique_ptr<obs::SpanCollector> spans_;
    std::vector<obs::SpanFault> spanFaults_; ///< set by stop()

    // Mirrors for the (lock-free) telemetry gauge provider.
    std::atomic<double> gaugeQueue_{0};
    std::atomic<double> gaugeInFlight_{0};

    /** Per-tenant attribution/SLO gauges mirrored for the telemetry
     *  provider: rebuilt under mutex_ on completions, read on worker
     *  threads under its own lock so the sampler never takes
     *  mutex_. */
    mutable std::mutex tenantGaugeMutex_;
    std::vector<std::pair<std::string, double>> tenantGauges_;

    // Program registry and source-compile cache, under cacheMutex_.
    std::mutex cacheMutex_;
    std::map<std::string, std::shared_ptr<const std::vector<Module>>>
        programs_;
    std::map<std::string, std::shared_ptr<const std::vector<Module>>>
        sourceCache_;
};

} // namespace fpc::serve

#endif // FPC_SERVE_SERVER_HH
