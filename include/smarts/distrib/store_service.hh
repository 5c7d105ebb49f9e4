/**
 * @file
 * The store-service protocol (docs/store-service.md): a DAEMON
 * process (tools/smarts_stored.cc) owns ONE hot CheckpointStore —
 * index, budget, GC, counters — and any number of concurrent leader
 * processes ask it for live-point libraries instead of each opening
 * the store directly. The win over N direct opener processes:
 *
 *  - SINGLE-FLIGHT capture. Two leaders missing on the same key at
 *    the same time would each pay a full capture pass (identical
 *    bytes — wasted work, never corruption, same argument as
 *    duplicated distrib jobs). The daemon groups same-key misses
 *    per scan and captures ONCE; every waiter gets the same entry.
 *  - One index, one GC. Budget accounting and LRU order live in one
 *    process instead of being re-derived per opener.
 *  - Observable cache behavior: the daemon exports its counters
 *    (hit rate, evictions, lookup-latency percentiles) as a JSON
 *    artifact (BENCH_store.json in CI).
 *
 * Like the distributed job queue (distrib/protocol.hh), the wire is
 * plain files in a shared directory — no sockets, nothing but a
 * filesystem both sides can reach:
 *
 *   <svc>/stored.pid            daemon presence marker
 *   <svc>/requests/<id>.req     client → daemon (atomic publish)
 *   <svc>/replies/<id>.rep      daemon → client (atomic publish)
 *
 * Both file kinds use the smarts::util binary discipline: 8-byte
 * magic, version, endianness marker, little-endian fields, trailing
 * FNV-1a checksum, atomic temp+rename publish, refusal of anything
 * short of an exact parse.
 *
 * Availability contract: the daemon is an OPTIMIZATION, never a
 * dependency. StoreServiceClient::ensureLivePoints degrades to the
 * caller's own direct-store path — with a warning, and the
 * `degraded` flag set — when the daemon is absent, dies mid-lookup,
 * refuses the request, or the reply's entry fails validation. The
 * result is bit-identical either way; only the capture cost moves.
 */

#ifndef SMARTS_DISTRIB_STORE_SERVICE_HH
#define SMARTS_DISTRIB_STORE_SERVICE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/checkpoint_store.hh"
#include "core/livepoint.hh"
#include "uarch/config.hh"
#include "util/binary_io.hh"
#include "workloads/benchmark.hh"

namespace smarts::distrib {

/** On-disk store-service protocol version (request + reply). */
constexpr std::uint32_t kStoreServiceFormatVersion = 1;

/** Service-directory file names. */
std::string daemonMarkerPath(const std::string &svc);
std::string requestPath(const std::string &svc,
                        const std::string &reqId);
std::string replyPath(const std::string &svc,
                      const std::string &reqId);

/** True while a daemon advertises itself under @p svc (marker file
 *  present). Cheap liveness, not proof — the degrade path covers a
 *  daemon that died without cleaning up. */
bool daemonPresent(const std::string &svc);

/** What a client asks of the daemon. */
enum class StoreRequestKind : std::uint8_t
{
    /** Make sure @p key's live-point library exists (capturing on
     *  miss) and reply with its path. */
    EnsureLivePoints = 0,
};

/**
 * One client request: the full study identity — benchmark, sampling
 * design, and the COMPLETE machine config, not just its geometry
 * hash — so a missing library can be captured by the daemon from
 * nothing but this file. The daemon recomputes the geometry hash
 * from the embedded config and refuses a request whose hash claim
 * it cannot reproduce (the manifest-fingerprint idiom: incompatible
 * builds fail loudly, never mis-warm).
 */
struct StoreRequest
{
    std::string reqId; ///< unique per request; names the reply file.
    StoreRequestKind kind = StoreRequestKind::EnsureLivePoints;
    workloads::BenchmarkSpec benchmark;
    core::SamplingConfig sampling;
    uarch::MachineConfig machine;

    /** The store key this request resolves to. */
    core::LibraryKey key() const;

    /** The file's payload (save() = serialize + checksummed file). */
    void serialize(util::BinaryWriter &out) const;

    /** Serialize + checksum + atomic publish at @p path. */
    bool save(const std::string &path,
              std::string *error = nullptr) const;

    /** Load and fully validate; nullopt + diagnostic on refusal. */
    static std::optional<StoreRequest>
    load(const std::string &path, std::string *error = nullptr);
};

/** How the daemon disposed of a request. */
enum class StoreReplyStatus : std::uint8_t
{
    Hit = 0,      ///< entry already existed; atime bumped.
    Captured = 1, ///< entry captured (this scan) for this key.
    Refused = 2,  ///< request invalid or capture failed; see error.
};

/**
 * The daemon's answer. On Hit/Captured, @p path names the published
 * `.smlp` entry in the daemon's store; the client loads it through
 * the normal fully-validating LivePointLibrary::load. The counter
 * echo is the daemon's CUMULATIVE totals at reply time — this is
 * how tests assert single-flight from the outside: two leaders
 * racing one cold key both see captures == 1.
 */
struct StoreReply
{
    std::string reqId;
    StoreReplyStatus status = StoreReplyStatus::Refused;
    std::string path;  ///< entry path; empty on Refused.
    std::string error; ///< diagnostic; empty on Hit/Captured.

    std::uint64_t hits = 0;      ///< daemon-lifetime request hits.
    std::uint64_t misses = 0;    ///< daemon-lifetime request misses.
    std::uint64_t captures = 0;  ///< libraries actually captured.
    std::uint64_t evictions = 0; ///< store GC evictions so far.

    /** The file's payload (save() = serialize + checksummed file). */
    void serialize(util::BinaryWriter &out) const;

    /** Serialize + checksum + atomic publish at @p path. */
    bool save(const std::string &path,
              std::string *error = nullptr) const;

    /** Load and fully validate; nullopt + diagnostic on refusal. */
    static std::optional<StoreReply>
    load(const std::string &path, std::string *error = nullptr);
};

/** What StoreServiceClient::ensureLivePoints resolved to. */
struct StoreServiceOutcome
{
    /** The validated library; nullopt only when BOTH the daemon and
     *  the local fallback failed (error says why). */
    std::optional<core::LivePointLibrary> library;

    /** True when the daemon path failed and the local direct-store
     *  fallback served the request instead. */
    bool degraded = false;

    /** True when a capture ran anywhere (daemon or fallback). */
    bool captured = false;

    /** The daemon's reply, when one arrived and parsed. */
    std::optional<StoreReply> reply;

    std::string error;
};

/**
 * A leader's view of the service: publish a request, wait for the
 * reply with the protocol's standard poll backoff, load the named
 * entry. Every failure mode past that — no daemon, timeout, daemon
 * death mid-lookup, refusal, an entry that fails validation —
 * degrades to @p fallback's own direct-store path (tryLoadLivePoints
 * / ensureLivePoints) with a warning, so callers never block on the
 * service being up.
 */
class StoreServiceClient
{
  public:
    /** @p svc is the daemon's service directory; @p id tags this
     *  client's request file names (default: pid-based). */
    explicit StoreServiceClient(std::string svc,
                                std::string id = std::string());

    const std::string &
    serviceDir() const
    {
        return svc_;
    }

    /**
     * Resolve (benchmark, machine, sampling) to a validated
     * live-point library via the daemon, degrading to @p fallback
     * on any service failure. @p timeoutSeconds bounds the reply
     * wait — generous by default because a cold daemon-side capture
     * is real simulation work, not a file stat.
     */
    StoreServiceOutcome
    ensureLivePoints(core::CheckpointStore &fallback,
                     const workloads::BenchmarkSpec &benchmark,
                     const uarch::MachineConfig &machine,
                     const core::SamplingConfig &sampling,
                     double timeoutSeconds = 120.0) const;

  private:
    std::string svc_;
    std::string id_;
};

} // namespace smarts::distrib

#endif // SMARTS_DISTRIB_STORE_SERVICE_HH
