// Package fnv1a is the one FNV-1a 64-bit implementation behind every
// fingerprint in the repository: spec hashes (simsvc), delivery digests
// (check), model-checker state hashes (mc) and consistent-hash ring points
// (cluster). The functions fold input into a caller-held state and are small
// enough to inline, so hot paths (one digest update per delivery, one state
// hash per explored state) pay no call and no hash.Hash64 allocation.
package fnv1a

// Offset is the FNV-1a 64-bit offset basis: the state to start from.
const Offset uint64 = 14695981039346656037

const prime uint64 = 1099511628211

// String folds the bytes of s into h.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// Bytes folds b into h, as String folds the same bytes.
func Bytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Uint64 folds the eight bytes of v, least significant first, into h.
func Uint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}
