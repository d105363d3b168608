// Byte codec for whole net::Packet frames — the real-runtime counterpart of
// the simulator's modeled byte ledger. The sim network ships packets as
// shared C++ objects and only *costs* them via EncodedSize/WireBytes; the
// UDP conduit (runtime/real.h) must actually cross an address space, so every
// envelope kind the protocol exchanges gets a real encoding here.
//
// Frame layout mirrors the snapshot codec and wal::EncodeRecord: fixed32
// CRC32C over the body, then the body — packet transport fields as varints
// (zigzag for signed values), piggybacked hints, then the primary payload and
// each coalesced rider as length-prefixed envelope blobs. An envelope blob is
// a kind byte (one per proto message type; snapshot messages nest their
// existing standalone frames) followed by the message fields. Decoding is
// defensive end to end: arbitrary bytes — truncations, forged counts, bad
// checksums, unknown kinds, trailing garbage — surface as Status::Corruption,
// never undefined behaviour, because a real socket can hand us anything.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "net/message.h"

namespace dvp::proto {

/// Serializes one envelope (kind byte + fields). Used for packet payloads and
/// riders; exposed for tests. Returns an empty string for envelope types the
/// codec does not know (nothing in the protocol sends such a payload).
std::string EncodeEnvelope(const net::Envelope& env);

/// Appends one envelope blob to *out — same bytes as EncodeEnvelope without
/// the temporary string (unknown envelope types append nothing).
void EncodeEnvelopeTo(const net::Envelope& env, std::string* out);

/// Decodes an envelope blob produced by EncodeEnvelope.
StatusOr<net::EnvelopePtr> DecodeEnvelope(std::string_view blob);

/// Serializes a whole packet: transport header, ack, hints, payload, riders.
std::string EncodePacket(const net::Packet& packet);

/// Appends a whole frame (fixed32 CRC + body) to *out, byte-for-byte equal to
/// EncodePacket. `scratch` is a caller-owned buffer reused for nested
/// envelope blobs; with warmed capacities in *out and *scratch the call
/// performs zero heap allocations — the real runtime's send path relies on
/// that.
void EncodePacketTo(const net::Packet& packet, std::string* out,
                    std::string* scratch);

/// Broadcast fan-out helper: the frame layout is CRC | src | dst | rest, and
/// for a fan-out only `dst` (and hence the CRC) differs per leg. Encodes
/// `rest` once into *tail when *tail is empty, then assembles the frame for
/// `dst` by splicing the header onto the shared tail and patching the
/// checksum. Byte-for-byte equal to EncodePacket on a copy of `packet` with
/// its dst replaced. Callers reuse one cleared *tail per fan-out.
void EncodePacketWithDstTo(const net::Packet& packet, SiteId dst,
                           std::string* out, std::string* tail,
                           std::string* scratch);

/// Decodes a frame produced by EncodePacket. Rejects (kCorruption) bad
/// checksums, truncations, unknown envelope kinds, and trailing garbage.
StatusOr<net::Packet> DecodePacket(std::string_view frame);

}  // namespace dvp::proto
