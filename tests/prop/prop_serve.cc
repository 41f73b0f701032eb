/**
 * @file
 * Serve-layer differential oracle: the network is a transparent
 * transport. A verdict served by pcaused over a real loopback
 * socket must be bit-identical to a direct FingerprintStore query —
 * same match flag, same label, same IEEE-754 distance bits — and
 * the same per-query diagnostics, alone or concurrent. Plus
 * codec properties: encode/decode round-trips exactly, and every
 * strict prefix of a valid payload decodes to a clean error.
 */

#include "prop_common.hh"

#include <cstring>
#include <thread>

#include "core/service.hh"
#include "core/store.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace pcause;
using namespace pcause::serve;
using pcheck::Ctx;

namespace
{

FingerprintStore
genStore(Ctx &ctx, std::size_t records, std::size_t nbits)
{
    FingerprintStore store;
    const FingerprintDb db = pcheck::genDb(ctx, nbits, records);
    for (std::size_t i = 0; i < db.size(); ++i)
        store.add(db.record(i).label, db.record(i).fingerprint);
    return store;
}

BitVec
genProbe(Ctx &ctx, const FingerprintStore &store, std::size_t nbits)
{
    if (ctx.boolean(0.5, "matching_probe")) {
        const std::size_t target =
            ctx.below(store.size(), "target");
        const BitVec fp = store.record(target).fingerprint.bits();
        return pcheck::genNoisyObservation(
            ctx, fp, 0.93,
            std::max<std::size_t>(1, fp.popcount() / 4));
    }
    return pcheck::genBitVec(ctx, nbits, 2);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

} // namespace

PCHECK_PROPERTY(PropServe, ServedVerdictEqualsDirectQuery,
                [](Ctx &ctx) {
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    FingerprintStore direct = genStore(ctx, records, nbits);

    AttackService svc{FingerprintStore(direct)};
    Server server(svc, {});
    Client client;
    PCHECK_EQ(client.connect(server.port()), std::string());

    const std::size_t queries = ctx.sizeRange(1, 4, "queries");
    for (std::size_t q = 0; q < queries; ++q) {
        IdentifyRequest req;
        req.errorString = genProbe(ctx, direct, nbits);
        req.options.linear = ctx.boolean(0.3, "linear");
        req.options.firstMatch = ctx.boolean(0.5, "first_match");

        const IdentifyParams prm = req.options.identifyParams();
        const IdentifyResult want =
            req.options.linear
                ? direct.queryLinear(req.errorString, prm)
                : direct.query(req.errorString, prm);

        const std::optional<IdentifyVerdict> served =
            client.identify(req, 16);
        PCHECK(served.has_value());
        PCHECK_EQ(served->matched, want.match.has_value());
        PCHECK(sameBits(served->distance, want.bestDistance));
        if (want.match)
            PCHECK_EQ(served->label,
                      direct.record(*want.match).label);
    }
})

PCHECK_PROPERTY(PropServe, ServedDiagnosticsEqualDirectIdentify,
                [](Ctx &ctx) {
    // Each verdict must carry its own query's diagnostics, whether
    // it was served alone or while others were in flight.
    const std::size_t records = ctx.sizeRange(1, 5, "records");
    const std::size_t nbits = 64 * records;
    const FingerprintStore direct = genStore(ctx, records, nbits);
    AttackService svc{FingerprintStore(direct)};
    Server server(svc, {});
    const bool concurrent = ctx.boolean(0.5, "concurrent");

    const std::size_t queries = ctx.sizeRange(1, 4, "queries");
    std::vector<IdentifyRequest> reqs(queries);
    for (IdentifyRequest &req : reqs) {
        req.errorString = genProbe(ctx, direct, nbits);
        req.options.linear = ctx.boolean(0.3, "linear");
        req.options.firstMatch = ctx.boolean(0.5, "first_match");
    }

    std::vector<std::optional<IdentifyVerdict>> served(queries);
    if (concurrent) {
        // One connection per request, all in flight together.
        std::vector<std::thread> senders;
        for (std::size_t q = 0; q < queries; ++q) {
            senders.emplace_back([&, q] {
                Client client;
                if (client.connect(server.port()).empty())
                    served[q] = client.identify(reqs[q], 16);
            });
        }
        for (std::thread &t : senders)
            t.join();
    } else {
        Client client;
        PCHECK_EQ(client.connect(server.port()), std::string());
        for (std::size_t q = 0; q < queries; ++q)
            served[q] = client.identify(reqs[q], 16);
    }

    for (std::size_t q = 0; q < queries; ++q) {
        const IdentifyVerdict want = svc.identify(reqs[q]);
        PCHECK(served[q].has_value());
        PCHECK_EQ(served[q]->matched, want.matched);
        PCHECK(sameBits(served[q]->distance, want.distance));
        PCHECK_EQ(served[q]->delta.candidatesScanned,
                  want.delta.candidatesScanned);
        PCHECK_EQ(served[q]->delta.recordsAvailable,
                  want.delta.recordsAvailable);
        PCHECK_EQ(served[q]->delta.indexFallbacks,
                  want.delta.indexFallbacks > 0 ? 1u : 0u);
    }
})

PCHECK_PROPERTY(PropServe, IdentifyCodecRoundTrips, [](Ctx &ctx) {
    const std::size_t nbits = 8 * ctx.sizeRange(1, 64, "nbits_8");
    IdentifyRequest req;
    req.errorString = pcheck::genBitVec(ctx, nbits, 1);
    req.options.linear = ctx.boolean(0.5, "linear");
    req.options.firstMatch = ctx.boolean(0.5, "first_match");
    req.options.threshold =
        static_cast<double>(ctx.below(1000, "thr_millis")) / 1000.0;

    const Payload wire = encodeIdentify(req);
    LoadResult<IdentifyRequest> back = decodeIdentify(wire);
    PCHECK(static_cast<bool>(back));
    PCHECK(back->options == req.options);
    PCHECK_EQ(back->errorString.size(), req.errorString.size());
    for (std::size_t w = 0; w < req.errorString.wordCount(); ++w)
        PCHECK_EQ(back->errorString.wordAt(w),
                  req.errorString.wordAt(w));
})

PCHECK_PROPERTY(PropServe, EveryPrefixDecodesToCleanError,
                [](Ctx &ctx) {
    // Build a random valid payload of a random kind, then check
    // every strict prefix (and one-byte extension) is rejected.
    Payload full;
    switch (ctx.sizeRange(0, 2, "kind")) {
    case 0: {
        IdentifyRequest req;
        req.errorString =
            pcheck::genBitVec(ctx, 8 * ctx.sizeRange(1, 16, "nb"), 1);
        full = encodeIdentify(req);
        break;
    }
    case 1: {
        CharacterizeRequest req;
        req.label = "p" + std::to_string(ctx.below(1000, "lab"));
        const std::size_t k = ctx.sizeRange(1, 3, "strings");
        for (std::size_t i = 0; i < k; ++i)
            req.errorStrings.push_back(
                pcheck::genBitVec(ctx, 64, 1));
        full = encodeCharacterize(req);
        break;
    }
    default: {
        IdentifyVerdict v;
        v.matched = ctx.boolean(0.5, "matched");
        v.label = v.matched ? "chip" : "";
        v.nearestLabel = "chip";
        v.distance =
            static_cast<double>(ctx.bits("dist")) / 1e19;
        full = encodeVerdict(v);
        break;
    }
    }

    const auto rejects = [](const Payload &p) {
        return !decodeIdentify(p) && !decodeCharacterize(p) &&
               !decodeVerdict(p) && !decodeAdded(p) &&
               !decodeJson(p) && !decodeError(p);
    };
    // Check a sampled prefix plus the empty and N-1 prefixes: a
    // matching decoder must reject all of them (the others reject
    // on the opcode byte alone).
    const std::uint8_t op = payloadOpcode(full);
    PCHECK(rejects(Payload{}));
    for (const std::size_t len :
         {std::size_t{1},
          ctx.sizeRange(1, full.size() - 1, "prefix"),
          full.size() - 1}) {
        const Payload prefix(full.begin(), full.begin() + len);
        PCHECK_EQ(payloadOpcode(prefix), len ? op : 0);
        PCHECK(rejects(prefix));
    }
    Payload extended = full;
    extended.push_back(ctx.bits("junk") & 0xFF);
    if (static_cast<Opcode>(op) == Opcode::Identify)
        PCHECK(!decodeIdentify(extended));
    if (static_cast<Opcode>(op) == Opcode::Characterize)
        PCHECK(!decodeCharacterize(extended));
    if (static_cast<Opcode>(op) == Opcode::Verdict)
        PCHECK(!decodeVerdict(extended));
})
