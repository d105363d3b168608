#include "proto/packet_codec.h"

#include <utility>

#include "proto/snapshot_codec.h"
#include "proto/wire.h"
#include "wal/encoding.h"

namespace dvp::proto {

namespace {

// Envelope kind bytes. Frozen: the UDP conduit speaks this across address
// spaces, so renumbering is a wire break.
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindVmTransfer = 2;
constexpr uint8_t kKindVmAck = 3;
constexpr uint8_t kKindVmClosure = 4;
constexpr uint8_t kKindCcNack = 5;
constexpr uint8_t kKindSurplusNack = 6;
constexpr uint8_t kKindSnapshotReq = 7;
constexpr uint8_t kKindSnapshotReply = 8;

void PutBool(std::string* dst, bool v) {
  dst->push_back(v ? '\x01' : '\x00');
}

bool GetBool(wal::Decoder* dec, bool* v) {
  uint64_t raw = 0;
  if (!dec->GetVarint64(&raw) || raw > 1) return false;
  *v = raw != 0;
  return true;
}

void EncodeRequest(std::string* body, const RequestMsg& m) {
  wal::PutVarint64(body, m.txn.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.origin.value());
  wal::PutVarint64(body, m.round);
  uint8_t flags = (m.want_surplus_nack ? 1 : 0) | (m.atomic_set ? 2 : 0);
  body->push_back(static_cast<char>(flags));
  wal::PutVarint64(body, m.parts.size());
  for (const RequestPart& p : m.parts) {
    wal::PutVarint64(body, p.item.value());
    wal::PutVarsint64(body, p.amount);
    PutBool(body, p.read_all);
  }
}

StatusOr<net::EnvelopePtr> DecodeRequest(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<RequestMsg>();
  uint64_t txn = 0, ts = 0, origin = 0, round = 0, flags = 0, n = 0;
  if (!dec.GetVarint64(&txn) || !dec.GetVarint64(&ts) ||
      !dec.GetVarint64(&origin) || !dec.GetVarint64(&round) ||
      !dec.GetVarint64(&flags) || flags > 3 || !dec.GetVarint64(&n)) {
    return Status::Corruption("request: truncated header");
  }
  if (n > dec.remaining()) {
    return Status::Corruption("request: part count exceeds frame");
  }
  m->txn = TxnId(txn);
  m->ts_packed = ts;
  m->origin = SiteId(static_cast<uint32_t>(origin));
  m->round = static_cast<uint32_t>(round);
  m->want_surplus_nack = (flags & 1) != 0;
  m->atomic_set = (flags & 2) != 0;
  m->parts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    RequestPart p;
    uint64_t item = 0;
    if (!dec.GetVarint64(&item) || !dec.GetVarsint64(&p.amount) ||
        !GetBool(&dec, &p.read_all)) {
      return Status::Corruption("request: truncated part");
    }
    p.item = ItemId(static_cast<uint32_t>(item));
    m->parts.push_back(p);
  }
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmTransfer(std::string* body, const VmTransferMsg& m) {
  wal::PutVarint64(body, m.vm.value());
  wal::PutVarint64(body, m.src.value());
  wal::PutVarint64(body, m.item.value());
  wal::PutVarsint64(body, m.amount);
  wal::PutVarint64(body, m.for_txn.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.closed_below);
  PutBool(body, m.is_read_reply);
  wal::PutVarint64(body, m.round);
  wal::PutVarint64(body, m.accept_count);
  wal::PutVarint64(body, m.create_count);
}

StatusOr<net::EnvelopePtr> DecodeVmTransfer(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmTransferMsg>();
  uint64_t vm = 0, src = 0, item = 0, txn = 0, round = 0;
  if (!dec.GetVarint64(&vm) || !dec.GetVarint64(&src) ||
      !dec.GetVarint64(&item) || !dec.GetVarsint64(&m->amount) ||
      !dec.GetVarint64(&txn) || !dec.GetVarint64(&m->ts_packed) ||
      !dec.GetVarint64(&m->closed_below) ||
      !GetBool(&dec, &m->is_read_reply) || !dec.GetVarint64(&round) ||
      !dec.GetVarint64(&m->accept_count) ||
      !dec.GetVarint64(&m->create_count)) {
    return Status::Corruption("vm transfer: truncated");
  }
  m->vm = VmId(vm);
  m->src = SiteId(static_cast<uint32_t>(src));
  m->item = ItemId(static_cast<uint32_t>(item));
  m->for_txn = TxnId(txn);
  m->round = static_cast<uint32_t>(round);
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmAck(std::string* body, const VmAckMsg& m) {
  wal::PutVarint64(body, m.vm.value());
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.ts_packed);
}

StatusOr<net::EnvelopePtr> DecodeVmAck(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmAckMsg>();
  uint64_t vm = 0, from = 0;
  if (!dec.GetVarint64(&vm) || !dec.GetVarint64(&from) ||
      !dec.GetVarint64(&m->ts_packed)) {
    return Status::Corruption("vm ack: truncated");
  }
  m->vm = VmId(vm);
  m->from = SiteId(static_cast<uint32_t>(from));
  return net::EnvelopePtr(std::move(m));
}

void EncodeVmClosure(std::string* body, const VmClosureMsg& m) {
  wal::PutVarint64(body, m.src.value());
  wal::PutVarint64(body, m.closed_below);
}

StatusOr<net::EnvelopePtr> DecodeVmClosure(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<VmClosureMsg>();
  uint64_t src = 0;
  if (!dec.GetVarint64(&src) || !dec.GetVarint64(&m->closed_below)) {
    return Status::Corruption("vm closure: truncated");
  }
  m->src = SiteId(static_cast<uint32_t>(src));
  return net::EnvelopePtr(std::move(m));
}

void EncodeCcNack(std::string* body, const CcNackMsg& m) {
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.ts_packed);
  wal::PutVarint64(body, m.txn.value());
  wal::PutVarint64(body, m.round);
}

StatusOr<net::EnvelopePtr> DecodeCcNack(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<CcNackMsg>();
  uint64_t from = 0, txn = 0, round = 0;
  if (!dec.GetVarint64(&from) || !dec.GetVarint64(&m->ts_packed) ||
      !dec.GetVarint64(&txn) || !dec.GetVarint64(&round)) {
    return Status::Corruption("cc nack: truncated");
  }
  m->from = SiteId(static_cast<uint32_t>(from));
  m->txn = TxnId(txn);
  m->round = static_cast<uint32_t>(round);
  return net::EnvelopePtr(std::move(m));
}

void EncodeSurplusNack(std::string* body, const SurplusNackMsg& m) {
  wal::PutVarint64(body, m.from.value());
  wal::PutVarint64(body, m.item.value());
  wal::PutVarint64(body, m.ts_packed);
}

StatusOr<net::EnvelopePtr> DecodeSurplusNack(wal::Decoder& dec) {
  auto m = net::MakeEnvelope<SurplusNackMsg>();
  uint64_t from = 0, item = 0;
  if (!dec.GetVarint64(&from) || !dec.GetVarint64(&item) ||
      !dec.GetVarint64(&m->ts_packed)) {
    return Status::Corruption("surplus nack: truncated");
  }
  m->from = SiteId(static_cast<uint32_t>(from));
  m->item = ItemId(static_cast<uint32_t>(item));
  return net::EnvelopePtr(std::move(m));
}

// Overwrites 4 bytes at `pos` with the same little-endian layout as
// wal::PutFixed32 — used to patch the CRC placeholder once the body that
// follows it has been appended in place.
void PatchFixed32(std::string* s, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*s)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Length-prefixed envelope blob via the reusable scratch buffer (cleared, not
// shrunk, so its capacity amortizes to zero allocations).
void AppendEnvelopeBlob(const net::EnvelopePtr& env, std::string* out,
                        std::string* scratch) {
  scratch->clear();
  if (env) EncodeEnvelopeTo(*env, scratch);
  wal::PutLengthPrefixed(out, *scratch);
}

// Body bytes after the dst varint: reliability through riders. Shared by the
// whole-frame and broadcast-fan-out encoders.
void AppendBodyAfterDst(const net::Packet& p, std::string* out,
                        std::string* scratch) {
  out->push_back(static_cast<char>(p.reliability));
  wal::PutVarint64(out, p.epoch);
  wal::PutVarint64(out, p.seq.value());
  wal::PutVarint64(out, p.seq_base);
  PutBool(out, p.has_ack);
  if (p.has_ack) {
    wal::PutVarint64(out, p.ack_epoch);
    wal::PutVarint64(out, p.ack_cum);
  }
  wal::PutVarint64(out, p.trace_id);
  wal::PutVarint64(out, p.hints.size());
  for (const net::PlacementHint& h : p.hints) {
    wal::PutVarint64(out, h.item.value());
    wal::PutVarsint64(out, h.surplus);
    wal::PutVarsint64(out, h.demand);
    wal::PutVarint64(out, h.stamp);
  }
  AppendEnvelopeBlob(p.payload, out, scratch);
  wal::PutVarint64(out, p.extra.size());
  for (const net::SubMsg& sub : p.extra) {
    out->push_back(static_cast<char>(sub.reliability));
    wal::PutVarint64(out, sub.seq.value());
    AppendEnvelopeBlob(sub.payload, out, scratch);
  }
}

}  // namespace

std::string EncodeEnvelope(const net::Envelope& env) {
  std::string blob;
  EncodeEnvelopeTo(env, &blob);
  return blob;
}

void EncodeEnvelopeTo(const net::Envelope& env, std::string* out) {
  // Kind byte, causal trace id (every envelope carries one), then the
  // kind-specific fields (or, for the snapshot messages, the nested frame —
  // they already have a standalone fuzz-hardened CRC codec; nest it rather
  // than invent a second layout).
  std::string& blob = *out;
  std::string_view tag = env.Tag();
  uint8_t kind = 0;
  if (tag == "Request") kind = kKindRequest;
  else if (tag == "VmTransfer") kind = kKindVmTransfer;
  else if (tag == "VmAck") kind = kKindVmAck;
  else if (tag == "VmClosure") kind = kKindVmClosure;
  else if (tag == "CcNack") kind = kKindCcNack;
  else if (tag == "SurplusNack") kind = kKindSurplusNack;
  else if (tag == "SnapshotReq") kind = kKindSnapshotReq;
  else if (tag == "SnapshotReply") kind = kKindSnapshotReply;
  else return;  // unknown envelope type: nothing on the wire
  blob.push_back(static_cast<char>(kind));
  wal::PutVarint64(&blob, env.trace_id);
  switch (kind) {
    case kKindRequest:
      EncodeRequest(&blob, static_cast<const RequestMsg&>(env));
      break;
    case kKindVmTransfer:
      EncodeVmTransfer(&blob, static_cast<const VmTransferMsg&>(env));
      break;
    case kKindVmAck:
      EncodeVmAck(&blob, static_cast<const VmAckMsg&>(env));
      break;
    case kKindVmClosure:
      EncodeVmClosure(&blob, static_cast<const VmClosureMsg&>(env));
      break;
    case kKindCcNack:
      EncodeCcNack(&blob, static_cast<const CcNackMsg&>(env));
      break;
    case kKindSurplusNack:
      EncodeSurplusNack(&blob, static_cast<const SurplusNackMsg&>(env));
      break;
    case kKindSnapshotReq:
      blob += EncodeSnapshotReq(static_cast<const SnapshotReqMsg&>(env));
      break;
    case kKindSnapshotReply:
      blob += EncodeSnapshotReply(static_cast<const SnapshotReplyMsg&>(env));
      break;
  }
}

StatusOr<net::EnvelopePtr> DecodeEnvelope(std::string_view blob) {
  if (blob.empty()) return Status::Corruption("envelope: empty blob");
  uint8_t kind = static_cast<uint8_t>(blob[0]);
  wal::Decoder dec(blob.substr(1));
  uint64_t trace_id = 0;
  if (!dec.GetVarint64(&trace_id)) {
    return Status::Corruption("envelope: truncated trace id");
  }
  // Bytes past the (kind, trace_id) prefix — the nested snapshot frames
  // consume this view whole instead of going through `dec`.
  std::string_view rest = blob.substr(blob.size() - dec.remaining());
  StatusOr<net::EnvelopePtr> result =
      Status::Corruption("envelope: unknown kind");
  switch (kind) {
    case kKindRequest:
      result = DecodeRequest(dec);
      break;
    case kKindVmTransfer:
      result = DecodeVmTransfer(dec);
      break;
    case kKindVmAck:
      result = DecodeVmAck(dec);
      break;
    case kKindVmClosure:
      result = DecodeVmClosure(dec);
      break;
    case kKindCcNack:
      result = DecodeCcNack(dec);
      break;
    case kKindSurplusNack:
      result = DecodeSurplusNack(dec);
      break;
    case kKindSnapshotReq: {
      StatusOr<SnapshotReqMsg> req = DecodeSnapshotReq(rest);
      if (!req.ok()) return req.status();
      auto env = net::MakeEnvelope<SnapshotReqMsg>(std::move(*req));
      env->trace_id = trace_id;
      return net::EnvelopePtr(std::move(env));
    }
    case kKindSnapshotReply: {
      StatusOr<SnapshotReplyMsg> reply = DecodeSnapshotReply(rest);
      if (!reply.ok()) return reply.status();
      auto env = net::MakeEnvelope<SnapshotReplyMsg>(std::move(*reply));
      env->trace_id = trace_id;
      return net::EnvelopePtr(std::move(env));
    }
    default:
      return result;
  }
  if (!result.ok()) return result;
  if (!dec.empty()) return Status::Corruption("envelope: trailing bytes");
  // Safe: the envelope was created mutable moments ago; sharing begins here.
  const_cast<net::Envelope*>(result->get())->trace_id = trace_id;
  return result;
}

std::string EncodePacket(const net::Packet& p) {
  std::string out, scratch;
  EncodePacketTo(p, &out, &scratch);
  return out;
}

void EncodePacketTo(const net::Packet& p, std::string* out,
                    std::string* scratch) {
  // CRC placeholder first, body appended in place behind it, checksum patched
  // at the end — one pass, no body copy (EncodePacket used to build the body
  // in a temporary and prepend the checksum).
  const size_t crc_pos = out->size();
  out->append(4, '\0');
  const size_t body_pos = out->size();
  wal::PutVarint64(out, p.src.value());
  wal::PutVarint64(out, p.dst.value());
  AppendBodyAfterDst(p, out, scratch);
  PatchFixed32(out, crc_pos,
               wal::Crc32c(std::string_view(*out).substr(body_pos)));
}

void EncodePacketWithDstTo(const net::Packet& p, SiteId dst, std::string* out,
                           std::string* tail, std::string* scratch) {
  if (tail->empty()) AppendBodyAfterDst(p, tail, scratch);
  const size_t crc_pos = out->size();
  out->append(4, '\0');
  const size_t body_pos = out->size();
  wal::PutVarint64(out, p.src.value());
  wal::PutVarint64(out, dst.value());
  out->append(*tail);
  PatchFixed32(out, crc_pos,
               wal::Crc32c(std::string_view(*out).substr(body_pos)));
}

StatusOr<net::Packet> DecodePacket(std::string_view frame) {
  wal::Decoder crc_dec(frame);
  uint32_t crc = 0;
  if (!crc_dec.GetFixed32(&crc)) {
    return Status::Corruption("packet: too short for checksum");
  }
  std::string_view body = frame.substr(4);
  if (wal::Crc32c(body) != crc) {
    return Status::Corruption("packet: checksum mismatch");
  }

  wal::Decoder dec(body);
  net::Packet p;
  uint64_t src = 0, dst = 0, rel = 0, seq = 0;
  if (!dec.GetVarint64(&src) || !dec.GetVarint64(&dst)) {
    return Status::Corruption("packet: truncated addressing");
  }
  if (!dec.GetVarint64(&rel) || rel > 1) {
    return Status::Corruption("packet: bad reliability class");
  }
  if (!dec.GetVarint64(&p.epoch) || !dec.GetVarint64(&seq) ||
      !dec.GetVarint64(&p.seq_base) || !GetBool(&dec, &p.has_ack)) {
    return Status::Corruption("packet: truncated channel state");
  }
  if (p.has_ack &&
      (!dec.GetVarint64(&p.ack_epoch) || !dec.GetVarint64(&p.ack_cum))) {
    return Status::Corruption("packet: truncated ack");
  }
  uint64_t num_hints = 0;
  if (!dec.GetVarint64(&p.trace_id) || !dec.GetVarint64(&num_hints)) {
    return Status::Corruption("packet: truncated trace/hints header");
  }
  if (num_hints > dec.remaining()) {
    return Status::Corruption("packet: hint count exceeds frame");
  }
  p.src = SiteId(static_cast<uint32_t>(src));
  p.dst = SiteId(static_cast<uint32_t>(dst));
  p.reliability = static_cast<net::Reliability>(rel);
  p.seq = MsgSeq(seq);
  p.hints.reserve(num_hints);
  for (uint64_t i = 0; i < num_hints; ++i) {
    net::PlacementHint h;
    uint64_t item = 0;
    if (!dec.GetVarint64(&item) || !dec.GetVarsint64(&h.surplus) ||
        !dec.GetVarsint64(&h.demand) || !dec.GetVarint64(&h.stamp)) {
      return Status::Corruption("packet: truncated hint");
    }
    h.item = ItemId(static_cast<uint32_t>(item));
    p.hints.push_back(h);
  }
  std::string_view payload_blob;
  if (!dec.GetLengthPrefixed(&payload_blob)) {
    return Status::Corruption("packet: truncated payload");
  }
  if (!payload_blob.empty()) {
    StatusOr<net::EnvelopePtr> payload = DecodeEnvelope(payload_blob);
    if (!payload.ok()) return payload.status();
    p.payload = std::move(*payload);
  }
  uint64_t num_extra = 0;
  if (!dec.GetVarint64(&num_extra)) {
    return Status::Corruption("packet: truncated rider count");
  }
  if (num_extra > dec.remaining()) {
    return Status::Corruption("packet: rider count exceeds frame");
  }
  p.extra.reserve(num_extra);
  for (uint64_t i = 0; i < num_extra; ++i) {
    net::SubMsg sub;
    uint64_t sub_rel = 0, sub_seq = 0;
    if (!dec.GetVarint64(&sub_rel) || sub_rel > 1 ||
        !dec.GetVarint64(&sub_seq)) {
      return Status::Corruption("packet: truncated rider header");
    }
    std::string_view sub_blob;
    if (!dec.GetLengthPrefixed(&sub_blob) || sub_blob.empty()) {
      return Status::Corruption("packet: truncated rider payload");
    }
    StatusOr<net::EnvelopePtr> sub_payload = DecodeEnvelope(sub_blob);
    if (!sub_payload.ok()) return sub_payload.status();
    sub.reliability = static_cast<net::Reliability>(sub_rel);
    sub.seq = MsgSeq(sub_seq);
    sub.payload = std::move(*sub_payload);
    p.extra.push_back(std::move(sub));
  }
  if (!dec.empty()) return Status::Corruption("packet: trailing bytes");
  return p;
}

}  // namespace dvp::proto
