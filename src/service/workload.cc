#include "service/workload.h"

#include <optional>

#include "common/failpoint.h"
#include "core/candidate.h"
#include "core/dummy.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "core/wire.h"
#include "crypto/poi_codec.h"

namespace ppgnn {

Result<ServiceRequest> BuildServiceRequest(
    Variant variant, const ProtocolParams& params,
    const std::vector<Point>& real_locations, const KeyPair& keys, Rng& rng,
    const RequestWireOptions& wire, const Encryptor* encryptor) {
  PPGNN_RETURN_IF_ERROR(params.Validate());
  if (encryptor != nullptr && !(encryptor->public_key().n == keys.pub.n))
    return Status::InvalidArgument(
        "encryptor does not wrap the request key pair");
  if (real_locations.size() != static_cast<size_t>(params.n))
    return Status::InvalidArgument("real_locations.size() != n");

  // Plan (Algorithm 1): solved partition for PPGNN/OPT, the flat
  // delta-sized single segment for Naive.
  PartitionPlan plan;
  int set_size = 0;
  if (variant == Variant::kNaive) {
    if (params.n == 1) {
      return Status::InvalidArgument(
          "the Naive variant is defined for group queries (n > 1)");
    }
    plan.alpha = 1;
    plan.n_bar = {params.n};
    plan.d_bar = {params.delta};
    plan.delta_prime = static_cast<uint64_t>(params.delta);
    set_size = params.delta;
  } else {
    PPGNN_ASSIGN_OR_RETURN(
        plan, SolvePartition(params.n, params.d, params.EffectiveDelta()));
    set_size = params.d;
  }

  // Segment chosen with probability d_bar[i] / d (Eqn 11), then one
  // position per subgroup inside it.
  int seg = 1;
  int64_t pick = rng.NextInRange(1, set_size);
  int64_t acc = 0;
  for (int i = 1; i <= plan.beta(); ++i) {
    acc += plan.d_bar[i - 1];
    if (pick <= acc) {
      seg = i;
      break;
    }
  }
  std::vector<int> x(plan.alpha);
  std::vector<int> pos(plan.alpha);
  for (int j = 0; j < plan.alpha; ++j) {
    x[j] = static_cast<int>(rng.NextInRange(1, plan.d_bar[seg - 1]));
    pos[j] = plan.SegmentOffset(seg) - 1 + x[j];
  }
  const uint64_t qi = QueryIndex(plan, seg, x);

  QueryMessage query;
  query.k = params.k;
  query.theta0 = params.theta0;
  query.aggregate = params.aggregate;
  query.plan = plan;
  query.pk = keys.pub;
  query.deadline_ms = wire.deadline_ms;
  query.idempotency_key = wire.idempotency_key;
  std::optional<Encryptor> own_enc;
  const Encryptor& enc =
      encryptor != nullptr ? *encryptor : own_enc.emplace(keys);
  if (variant == Variant::kPpgnnOpt) {
    query.is_opt = true;
    PoiCodec codec(params.key_bits);
    const uint64_t omega =
        ChooseOmega(plan.delta_prime,
                    codec.IntsNeeded(static_cast<size_t>(params.k)));
    PPGNN_ASSIGN_OR_RETURN(
        query.opt_indicator,
        EncryptOptIndicator(enc, qi, plan.delta_prime, omega, rng));
  } else {
    PPGNN_ASSIGN_OR_RETURN(query.indicator,
                           EncryptIndicator(enc, qi, plan.delta_prime, rng));
  }

  ServiceRequest request;
  PPGNN_ASSIGN_OR_RETURN(request.query, query.Encode());

  std::vector<int> subgroup = SubgroupOfUser(plan);
  const DummyGenerator& dummies = params.dummy_generator != nullptr
                                      ? *params.dummy_generator
                                      : UniformDummies();
  request.uploads.reserve(static_cast<size_t>(params.n));
  for (int u = 0; u < params.n; ++u) {
    LocationSetMessage msg;
    msg.user_id = static_cast<uint32_t>(u);
    msg.locations.resize(static_cast<size_t>(set_size));
    if (FailpointDrop("user.upload")) {
      // Dropout degradation: the coordinator never received this user's
      // set, so it substitutes a synthetic one around a random anchor
      // (the dropped user's location is unknown to it). Same set size,
      // same encoded bytes per slot — wire shape is unchanged.
      const Point anchor{rng.NextDouble(), rng.NextDouble()};
      for (Point& p : msg.locations) {
        p = dummies.Generate(anchor, rng);
      }
      request.degraded_users++;
    } else {
      for (Point& p : msg.locations) {
        p = dummies.Generate(real_locations[u], rng);
      }
      msg.locations[pos[subgroup[u]] - 1] = real_locations[u];
    }
    request.uploads.push_back(msg.Encode());
  }
  return request;
}

Result<ServedReply> ParseServedReply(const std::vector<uint8_t>& frame_bytes,
                                     const KeyPair& keys,
                                     const Decryptor& dec, bool layered) {
  PPGNN_ASSIGN_OR_RETURN(ResponseFrame frame,
                         ResponseFrame::Decode(frame_bytes));
  ServedReply reply;
  if (frame.is_error) {
    reply.ok = false;
    reply.error = std::move(frame.error);
    return reply;
  }
  PPGNN_ASSIGN_OR_RETURN(AnswerMessage answer,
                         AnswerMessage::Decode(frame.answer, keys.pub));
  std::vector<BigInt> plain;
  plain.reserve(answer.ciphertexts.size());
  for (const Ciphertext& ct : answer.ciphertexts) {
    if (layered) {
      PPGNN_ASSIGN_OR_RETURN(BigInt value, dec.DecryptLayered(ct));
      plain.push_back(std::move(value));
    } else {
      PPGNN_ASSIGN_OR_RETURN(BigInt value, dec.Decrypt(ct));
      plain.push_back(std::move(value));
    }
  }
  PoiCodec codec(keys.pub.key_bits);
  PPGNN_ASSIGN_OR_RETURN(reply.pois, codec.Decode(plain));
  reply.ok = true;
  return reply;
}

}  // namespace ppgnn
