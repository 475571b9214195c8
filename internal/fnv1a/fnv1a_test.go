package fnv1a

import "testing"

// TestPublishedVectors pins the implementation to the reference FNV-1a 64
// test vectors (Noll's test suite): every spec hash, golden digest, ring
// placement and mc state count in the repository depends on these values.
func TestPublishedVectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := String(Offset, tc.in); got != tc.want {
			t.Errorf("String(Offset, %q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// TestUint64IsLittleEndianBytes: folding a word equals folding its eight
// bytes least significant first.
func TestUint64IsLittleEndianBytes(t *testing.T) {
	const v uint64 = 0x0123456789abcdef
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * uint(i)))
	}
	if got, want := Uint64(Offset, v), String(Offset, string(b)); got != want {
		t.Errorf("Uint64 = %#x, bytewise = %#x", got, want)
	}
}

// TestBytesIsString: folding a byte slice equals folding the same bytes as a
// string.
func TestBytesIsString(t *testing.T) {
	for _, s := range []string{"", "a", "foobar", "scheme=PR\npattern=PAT271\n"} {
		if got, want := Bytes(Offset, []byte(s)), String(Offset, s); got != want {
			t.Errorf("Bytes(Offset, %q) = %#x, String = %#x", s, got, want)
		}
	}
}
