// Package checkpoint provides the versioned, self-describing container
// for cycle-exact simulator state snapshots, plus the sinks that store
// them (an atomic on-disk directory sink and an in-memory sink for
// tests).
//
// The container is deliberately dumb: a fixed header (magic, format
// version, payload length) followed by a SHA-256 digest of the payload
// and the payload itself. What the payload *means* — which machine
// state, serialized how — is the simulator's business (internal/gpu
// assembles it from the per-package state snapshots); this package only
// guarantees that a decoded payload is byte-for-byte the payload that
// was encoded. Any mutation of the container — header, digest, payload,
// truncation, trailing garbage — yields a typed *simerr.SimError of
// KindCheckpoint, never a silently wrong payload: decode success implies
// the 256-bit digest matched, so a fuzzer (or a failing disk) cannot
// forge a divergent-but-accepted snapshot.
//
// The package is a near-leaf: it imports only the standard library,
// simerr (for the typed error), and fault (for crash-point injection in
// the durability tests), so every layer can depend on it without cycles.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"gpushare/internal/simerr"
)

// Magic identifies a checkpoint container ("GPU Sharing ChecKpoint").
const Magic = "GSCK"

// FormatVersion is the container layout revision. Bump it when the
// header layout changes; payload-schema changes are versioned by the
// payload itself (internal/gpu embeds its own version and canonical
// config and cross-checks them before applying a snapshot).
const FormatVersion = 1

// HeaderSize is the container header's length: magic(4) + version(4)
// + payload length(8) + sha256(32). The payload follows it.
const HeaderSize = 4 + 4 + 8 + sha256.Size

// errf builds the package's typed decode/encode error.
func errf(format string, args ...any) *simerr.SimError {
	return simerr.New(simerr.KindCheckpoint, -1, format, args...)
}

// Encode wraps payload in the checkpoint container: header, SHA-256
// digest, payload. It copies payload behind a reserved header and seals
// the copy.
func Encode(payload []byte) []byte {
	out := make([]byte, HeaderSize+len(payload))
	copy(out[HeaderSize:], payload)
	return Seal(out)
}

// Seal turns blob — HeaderSize reserved bytes followed by the payload —
// into a container in place, by writing the header over the reserved
// bytes, and returns it. A writer that builds the payload behind the
// reserved bytes itself needs no second copy of it.
func Seal(blob []byte) []byte {
	payload := blob[HeaderSize:]
	copy(blob[0:4], Magic)
	binary.LittleEndian.PutUint32(blob[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(blob[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[16:16+sha256.Size], sum[:])
	return blob
}

// Decode validates a checkpoint container and returns its payload. Every
// failure — wrong magic, unknown version, length mismatch, truncation,
// trailing bytes, digest mismatch — is a *simerr.SimError of
// KindCheckpoint. On success the returned slice aliases blob.
func Decode(blob []byte) ([]byte, error) {
	if len(blob) < HeaderSize {
		return nil, errf("checkpoint truncated: %d bytes, header alone needs %d", len(blob), HeaderSize)
	}
	if string(blob[0:4]) != Magic {
		return nil, errf("not a checkpoint: magic %q, want %q", blob[0:4], Magic)
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != FormatVersion {
		return nil, errf("unsupported checkpoint format version %d (this build reads %d)", v, FormatVersion)
	}
	n := binary.LittleEndian.Uint64(blob[8:16])
	if n != uint64(len(blob)-HeaderSize) {
		return nil, errf("checkpoint payload length %d disagrees with container size %d (torn or corrupted file)",
			n, len(blob)-HeaderSize)
	}
	payload := blob[HeaderSize:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(blob[16:16+sha256.Size]) {
		return nil, errf("checkpoint digest mismatch: payload was corrupted after writing")
	}
	return payload, nil
}

// Sink receives encoded checkpoint containers, one per checkpointed
// cycle, during a run.
type Sink interface {
	// Put stores the container for the given cycle. A Put error aborts
	// the run (a checkpointed run that cannot checkpoint is failing at
	// its job). Put must not keep blob after it returns: the simulator
	// writes every snapshot into the same buffer, so a sink that stores
	// the bytes stores a copy (MemSink) or writes them out (DirSink).
	Put(cycle int64, blob []byte) error
}

// validateBlobFor decodes blob and cross-checks nothing beyond the
// container itself; helper shared by the sinks' read paths.
func validateBlob(cycle int64, blob []byte) error {
	if _, err := Decode(blob); err != nil {
		return fmt.Errorf("checkpoint for cycle %d: %w", cycle, err)
	}
	return nil
}
