// Package fingerprint implements the 128-bit state fingerprints that back
// the exhaustive explorer's hash-based visited sets.
//
// A Digest is a 128-bit fingerprint with two algebraic properties the
// explorer exploits:
//
//   - Digests compose by lane-wise addition modulo 2^64 (Add/Sub), so the
//     fingerprint of a compound object — a configuration, a buffer
//     multiset, a causal-knowledge set — is the sum of its components'
//     contributions, and a successor's fingerprint is derived from its
//     parent's by subtracting the contributions that changed and adding
//     their replacements. No re-encoding of the whole object is ever
//     needed on the hot path.
//   - Contributions are made position- and role-dependent by Mixed, a
//     salted avalanche scramble, so the same component in two different
//     slots (processor 1's state vs processor 2's, a message in buffer 0
//     vs buffer 1) contributes differently and slot swaps change the sum.
//
// Fingerprints are deterministic: the same data always hashes to the same
// digest, across runs and across processes (no per-process seeding), which
// is what lets the differential suites compare fingerprint-keyed
// explorations byte for byte with reference walks keyed by full canonical
// strings. Equal canonical encodings imply equal digests by construction;
// the converse holds only with overwhelming probability (~2^-128 per pair).
//
// Everything here is pure: no package-level mutable state, no mutation of
// arguments, no ambient inputs. The ccvet purity analyzer enforces this
// over the whole package.
package fingerprint

import "strconv"

// Digest is a 128-bit fingerprint. The zero value is the fingerprint of
// "nothing": an empty sum of contributions.
type Digest struct {
	Lo, Hi uint64
}

// IsZero reports whether the digest is the zero (empty-sum) digest.
func (d Digest) IsZero() bool { return d.Lo == 0 && d.Hi == 0 }

// Add returns the lane-wise sum of two digests modulo 2^64. Addition is
// commutative and associative, so a sum of contributions is independent of
// the order they were folded in — the property that makes multiset hashes
// and incremental successor derivation sound.
func (d Digest) Add(o Digest) Digest {
	return Digest{Lo: d.Lo + o.Lo, Hi: d.Hi + o.Hi}
}

// Sub removes a previously added contribution: d.Add(o).Sub(o) == d.
func (d Digest) Sub(o Digest) Digest {
	return Digest{Lo: d.Lo - o.Lo, Hi: d.Hi - o.Hi}
}

// Mixed scrambles the digest under a salt, making the result dependent on
// both the digest and the salt with full avalanche. Contributions mixed
// under distinct salts are (with overwhelming probability) algebraically
// unrelated, so sums over salted contributions distinguish both content
// and position.
func (d Digest) Mixed(salt uint64) Digest {
	s := Mix64(salt ^ 0xa24baed4963ee407)
	lo := Mix64(d.Lo ^ s)
	hi := Mix64(d.Hi + s + lo*0x9e3779b97f4a7c15)
	return Digest{Lo: lo, Hi: hi}
}

// Less orders digests lexicographically by (Hi, Lo) — the same order their
// String renderings sort in. Symmetry canonicalization uses it to pick the
// orbit-minimal fingerprint as a state's canonical dedup handle.
func (d Digest) Less(o Digest) bool {
	if d.Hi != o.Hi {
		return d.Hi < o.Hi
	}
	return d.Lo < o.Lo
}

// String renders the digest as 32 hex digits.
func (d Digest) String() string {
	buf := make([]byte, 0, 32)
	buf = appendHex16(buf, d.Hi)
	buf = appendHex16(buf, d.Lo)
	return string(buf)
}

func appendHex16(buf []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, digits[(v>>uint(shift))&0xf])
	}
	return buf
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche scramble, and
// the one every seeded decision in the module derives its bits from, each
// caller under its own xor salt.
//
//ccvet:pure
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hasher streams data into a 128-bit digest: two independent multiply-xor
// lanes with distinct odd multipliers, cross-coupled and avalanched by
// Sum. It exists so compound keys can be hashed piecewise without first
// concatenating them into a string.
type Hasher struct {
	lo, hi uint64
}

// hasher lane constants: lane 1 is FNV-1a 64; lane 2 uses the golden-ratio
// multiplier so the two lanes are algebraically unrelated (two FNV lanes
// with different offsets but the same prime would differ by a data-
// independent term and carry only 64 bits of state between them).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	lane2Init = 0x9747b28c9747b28c
	lane2Mult = 0x9e3779b97f4a7c15
)

// New returns a Hasher ready to accept writes.
func New() Hasher {
	return Hasher{lo: fnvOffset, hi: lane2Init}
}

// WriteString folds a string into the hash byte by byte.
func (h *Hasher) WriteString(s string) {
	lo, hi := h.lo, h.hi
	for i := 0; i < len(s); i++ {
		b := uint64(s[i])
		lo = (lo ^ b) * fnvPrime
		hi = (hi ^ b) * lane2Mult
	}
	h.lo, h.hi = lo, hi
}

// WriteUint64 folds one 64-bit word into the hash in a single step per
// lane. Word writes and byte writes are deliberately distinct encodings;
// callers must not mix them for data that should compare equal.
func (h *Hasher) WriteUint64(v uint64) {
	h.lo = (h.lo ^ v) * fnvPrime
	h.hi = (h.hi ^ Mix64(v)) * lane2Mult
}

// Sum finalizes the hash into a digest. Sum does not consume the hasher:
// further writes may follow and Sum may be called again.
func (h *Hasher) Sum() Digest {
	lo := Mix64(h.lo ^ (h.hi >> 32))
	hi := Mix64(h.hi + lo)
	return Digest{Lo: lo, Hi: hi}
}

// OfString fingerprints a string.
func OfString(s string) Digest {
	h := New()
	h.WriteString(s)
	return h.Sum()
}

// OfUint64 fingerprints a single 64-bit word. It is the cheap path for
// structural keys that pack into one word (message triples, decisions).
func OfUint64(v uint64) Digest {
	lo := Mix64(v ^ 0x8e5cd1f6a2b3c4d5)
	hi := Mix64(v + 0x71c947a3b2e058d1 + lo)
	return Digest{Lo: lo, Hi: hi}
}

// Parse decodes a 32-hex-digit digest as produced by String. It is the
// inverse used by tests and tooling; malformed input returns ok=false.
func Parse(s string) (Digest, bool) {
	if len(s) != 32 {
		return Digest{}, false
	}
	hi, err1 := strconv.ParseUint(s[:16], 16, 64)
	lo, err2 := strconv.ParseUint(s[16:], 16, 64)
	if err1 != nil || err2 != nil {
		return Digest{}, false
	}
	return Digest{Lo: lo, Hi: hi}, true
}
