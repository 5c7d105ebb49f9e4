#include "distrib/store_service.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include <unistd.h>

#include "distrib/protocol.hh"
#include "util/logging.hh"

namespace smarts::distrib {

namespace fs = std::filesystem;

namespace {

/** File magics, same 8-byte convention as the job queue. */
constexpr char kRequestMagic[8] = {'S', 'M', 'R', 'T',
                                   'S', 'R', 'E', 'Q'};
constexpr char kReplyMagic[8] = {'S', 'M', 'R', 'T',
                                 'S', 'R', 'E', 'P'};

/** Endianness probe, same convention as the .smck format. */
constexpr std::uint32_t kEndianMark = 0x01020304u;

void
writeMagic(util::BinaryWriter &out, const char (&magic)[8])
{
    for (const char c : magic)
        out.u8(static_cast<std::uint8_t>(c));
}

bool
readMagic(util::BinaryReader &in, const char (&magic)[8])
{
    bool ok = true;
    for (const char c : magic)
        ok &= in.u8() == static_cast<std::uint8_t>(c);
    return ok;
}

/** Shared header check for both file kinds. */
bool
checkHeader(util::BinaryReader &in, const char (&magic)[8],
            const std::string &path, const char *what,
            std::string *error)
{
    if (!readMagic(in, magic)) {
        if (error)
            *error = log::format(path, " is not a smarts ", what);
        return false;
    }
    const std::uint32_t version = in.u32();
    if (version != kStoreServiceFormatVersion) {
        if (error)
            *error = log::format(
                path, " is store-service version ", version,
                "; this build speaks version ",
                kStoreServiceFormatVersion);
        return false;
    }
    if (in.u32() != kEndianMark) {
        if (error)
            *error =
                log::format(path, " has a bad endianness marker");
        return false;
    }
    return true;
}

} // namespace

std::string
daemonMarkerPath(const std::string &svc)
{
    return (fs::path(svc) / "stored.pid").string();
}

std::string
requestPath(const std::string &svc, const std::string &reqId)
{
    return (fs::path(svc) / "requests" / (reqId + ".req")).string();
}

std::string
replyPath(const std::string &svc, const std::string &reqId)
{
    return (fs::path(svc) / "replies" / (reqId + ".rep")).string();
}

bool
daemonPresent(const std::string &svc)
{
    std::error_code ec;
    return fs::exists(daemonMarkerPath(svc), ec);
}

core::LibraryKey
StoreRequest::key() const
{
    return core::LibraryKey::of(benchmark, machine, sampling);
}

bool
StoreRequest::save(const std::string &path, std::string *error) const
{
    util::BinaryWriter out;
    writeMagic(out, kRequestMagic);
    out.u32(kStoreServiceFormatVersion);
    out.u32(kEndianMark);
    out.str(reqId);
    out.u8(static_cast<std::uint8_t>(kind));
    // Benchmark + sampling + geometry via the LibraryKey encoding
    // (docs/checkpoint-format.md § Key), then the FULL machine so a
    // miss is capturable from this file alone.
    key().write(out);
    writeMachineConfig(out, machine);
    return out.writeFile(path, error);
}

std::optional<StoreRequest>
StoreRequest::load(const std::string &path, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::string ioError;
    util::BinaryReader in =
        util::BinaryReader::fromFile(path, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));
    if (!checkHeader(in, kRequestMagic, path,
                     "store-service request", error))
        return std::nullopt;

    StoreRequest r;
    r.reqId = in.str();
    const std::uint8_t kindByte = in.u8();
    if (kindByte >
        static_cast<std::uint8_t>(StoreRequestKind::EnsureLivePoints))
        return refuse(log::format(path, " names unknown request "
                                        "kind ",
                                  static_cast<unsigned>(kindByte)));
    r.kind = static_cast<StoreRequestKind>(kindByte);
    const core::LibraryKey claimed = core::LibraryKey::read(in);
    r.benchmark = claimed.benchmark;
    r.sampling = claimed.sampling;
    r.machine = readMachineConfig(in);
    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(path, " is truncated or has "
                                        "trailing bytes"));
    if (r.reqId.empty())
        return refuse(log::format(path, " has an empty request id"));
    const std::string configError = uarch::configError(r.machine);
    if (!configError.empty())
        return refuse(log::format(path, " is corrupt (machine config: ",
                                  configError, ")"));

    // The geometry-hash claim must be reproducible from the embedded
    // config by THIS build — a client built from incompatible
    // sources fails loudly here, never captures mis-keyed state.
    const std::uint64_t have = uarch::warmGeometryHash(r.machine);
    if (claimed.geometryHash != have)
        return refuse(log::format(
            path, " claims geometry hash the daemon's build does "
                  "not reproduce (claimed ",
            claimed.geometryHash, ", computed ", have, ")"));
    return r;
}

bool
StoreReply::save(const std::string &file,
                 std::string *error) const
{
    util::BinaryWriter out;
    writeMagic(out, kReplyMagic);
    out.u32(kStoreServiceFormatVersion);
    out.u32(kEndianMark);
    out.str(reqId);
    out.u8(static_cast<std::uint8_t>(status));
    out.str(path);
    out.str(this->error);
    out.u64(hits);
    out.u64(misses);
    out.u64(captures);
    out.u64(evictions);
    return out.writeFile(file, error);
}

std::optional<StoreReply>
StoreReply::load(const std::string &path, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::string ioError;
    util::BinaryReader in =
        util::BinaryReader::fromFile(path, &ioError);
    if (in.failed())
        return refuse(std::move(ioError));
    if (!checkHeader(in, kReplyMagic, path, "store-service reply",
                     error))
        return std::nullopt;

    StoreReply r;
    r.reqId = in.str();
    const std::uint8_t statusByte = in.u8();
    if (statusByte >
        static_cast<std::uint8_t>(StoreReplyStatus::Refused))
        return refuse(log::format(path, " names unknown reply "
                                        "status ",
                                  static_cast<unsigned>(statusByte)));
    r.status = static_cast<StoreReplyStatus>(statusByte);
    r.path = in.str();
    r.error = in.str();
    r.hits = in.u64();
    r.misses = in.u64();
    r.captures = in.u64();
    r.evictions = in.u64();
    if (in.failed() || in.remaining() != 0)
        return refuse(log::format(path, " is truncated or has "
                                        "trailing bytes"));
    return r;
}

StoreServiceClient::StoreServiceClient(std::string svc,
                                       std::string id)
    : svc_(std::move(svc)), id_(std::move(id))
{
    if (id_.empty())
        id_ = log::format("client-", ::getpid());
}

StoreServiceOutcome
StoreServiceClient::ensureLivePoints(
    core::CheckpointStore &fallback,
    const workloads::BenchmarkSpec &benchmark,
    const uarch::MachineConfig &machine,
    const core::SamplingConfig &sampling,
    double timeoutSeconds) const
{
    StoreServiceOutcome outcome;
    const core::LibraryKey key =
        core::LibraryKey::of(benchmark, machine, sampling);

    // The degrade path: the caller's own direct store, same
    // miss-capture-reload sequence the daemon would have run.
    auto direct = [&](const char *why) {
        if (why)
            SMARTS_WARN("store service at ", svc_, ": ", why,
                        "; serving from the local store");
        outcome.degraded = why != nullptr;
        std::string error;
        outcome.library = fallback.tryLoadLivePoints(key, &error);
        if (!outcome.library) {
            outcome.captured =
                fallback.ensureLivePoints(benchmark, {machine},
                                          sampling) > 0;
            outcome.library = fallback.tryLoadLivePoints(key, &error);
        }
        if (!outcome.library)
            outcome.error = error.empty()
                                ? "local live-point capture failed"
                                : error;
        return outcome;
    };

    if (!daemonPresent(svc_))
        return direct(nullptr); // no daemon = the normal local path.

    static std::atomic<unsigned> serial{0};
    StoreRequest request;
    request.reqId =
        log::format(id_, "-", serial.fetch_add(1));
    request.benchmark = benchmark;
    request.sampling = sampling;
    request.machine = machine;

    std::string error;
    if (!request.save(requestPath(svc_, request.reqId), &error))
        return direct(error.c_str());

    // Wait for the reply: the protocol's standard exponential poll
    // backoff, bounded by the caller's deadline, aborted early if
    // the daemon's presence marker vanishes (death mid-lookup).
    const std::string reply = replyPath(svc_, request.reqId);
    const auto deadline =
        // smarts-lint: allow(no-ambient-nondeterminism) the reply
        // deadline bounds POLLING, never an estimate: the library
        // that comes back is validated bit-for-bit regardless of
        // when (or whether) the daemon answers.
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(
            timeoutSeconds > 0.0 ? timeoutSeconds : 0.0);
    PollBackoff backoff;
    std::error_code ec;
    for (;;) {
        if (fs::exists(reply, ec))
            break;
        if (!daemonPresent(svc_)) {
            fs::remove(requestPath(svc_, request.reqId), ec);
            return direct("daemon died mid-lookup");
        }
        // smarts-lint: allow(no-ambient-nondeterminism) give-up
        // check for a reply that never comes; see deadline above.
        if (std::chrono::steady_clock::now() >= deadline) {
            fs::remove(requestPath(svc_, request.reqId), ec);
            return direct("timed out waiting for a reply");
        }
        std::this_thread::sleep_for(
            // smarts-lint: allow(no-ambient-nondeterminism) poll
            // pacing only.
            std::chrono::duration<double, std::milli>(
                backoff.nextMs()));
    }

    auto parsed = StoreReply::load(reply, &error);
    fs::remove(reply, ec); // consumed either way.
    if (!parsed)
        return direct(error.c_str());
    outcome.reply = *parsed;
    if (parsed->status == StoreReplyStatus::Refused)
        return direct(parsed->error.empty()
                          ? "daemon refused the request"
                          : parsed->error.c_str());

    outcome.library =
        core::LivePointLibrary::load(parsed->path, key, &error);
    if (!outcome.library)
        return direct(error.c_str());
    outcome.captured =
        parsed->status == StoreReplyStatus::Captured;
    return outcome;
}

} // namespace smarts::distrib
