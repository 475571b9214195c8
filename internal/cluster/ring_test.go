package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestParseURLList(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     []string // nil: an error
	}{
		{"one", "http://a:1", []string{"http://a:1"}},
		{"two", "http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{"trailing slashes", "http://a:1/,http://b:2//", []string{"http://a:1", "http://b:2"}},
		{"surrounding spaces", " http://a:1 ,\thttp://b:2/ ", []string{"http://a:1", "http://b:2"}},
		{"trailing comma", "http://a:1,", nil},
		{"leading comma", ",http://a:1", nil},
		{"inner blank", "http://a:1, ,http://b:2", nil},
		{"only a slash", "http://a:1,/", nil},
		{"empty", "", nil},
	} {
		got, err := ParseURLList(c.in)
		if (err == nil) != (c.want != nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ParseURLList(%q) = %q, %v; want %q", c.name, c.in, got, err, c.want)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("empty backend name accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	names := []string{"http://b0", "http://b1", "http://b2"}
	r1, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(names)

	counts := make([]int, len(names))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		o := r1.Owner(key)
		if o2 := r2.Owner(key); o2 != o {
			t.Fatalf("owner(%s) differs across identical rings: %d vs %d", key, o, o2)
		}
		counts[o]++
	}
	for i, n := range counts {
		// With 64 vnodes per backend the expected share is ~3333; accept a
		// generous band — the point is no backend is starved or doubled.
		if n < 2000 || n > 4700 {
			t.Fatalf("backend %d owns %d/10000 keys — ring is unbalanced: %v", i, n, counts)
		}
	}
}

func TestRingSuccessorsDistinctAndStable(t *testing.T) {
	names := []string{"http://b0", "http://b1", "http://b2", "http://b3"}
	r, err := NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("successors(%s) = %v, want 3 entries", key, succ)
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("successors(%s)[0] = %d, owner = %d", key, succ[0], r.Owner(key))
		}
		seen := map[int]bool{}
		for _, b := range succ {
			if seen[b] {
				t.Fatalf("successors(%s) repeats backend %d: %v", key, b, succ)
			}
			seen[b] = true
		}
	}
	// Asking for more replicas than backends caps at the membership.
	if got := r.Successors("k", 99); len(got) != len(names) {
		t.Fatalf("successors capped at %d, want %d", len(got), len(names))
	}
}

// TestRingConsistency pins the consistent-hashing property: removing one
// backend moves only the keys it owned — every other key keeps its owner.
func TestRingConsistency(t *testing.T) {
	full, err := NewRing([]string{"http://b0", "http://b1", "http://b2"})
	if err != nil {
		t.Fatal(err)
	}
	// Drop b2: surviving names keep indices 0 and 1.
	reduced, err := NewRing([]string{"http://b0", "http://b1"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before == 2 {
			continue // its owner left; it must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving backends moved after losing one member", moved)
	}
}
