package ckpt

import "testing"

// leaf and node are a payload graph in miniature: nodes share leaves.
type leaf struct{ v int }

func (l *leaf) Checkpoint(c *C) { Int(c, &l.v) }

type node struct {
	a, b *leaf
	at   int64
	flag bool
	ids  []int32
	stat int64
}

func (n *node) run(c *C) {
	Ref(c, &n.a)
	Ref(c, &n.b)
	c.Time(&n.at)
	c.Bool(&n.flag)
	Slice(c, &n.ids, func(id *int32) { Int(c, id) })
	if c.Unhashed() {
		Int(c, &n.stat)
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return
}

// TestRoundTrip: what one description writes it reads back, into fresh payload
// objects with the sharing intact, or, replayed, into the very objects written.
func TestRoundTrip(t *testing.T) {
	shared := &leaf{7}
	src := node{a: shared, b: shared, at: -1, flag: true, ids: []int32{-3, 1 << 30}, stat: 9}
	w := NewWriter(0, 0)
	src.run(w)
	if words, objects := w.Size(); words != len(w.Words()) || objects != 1 {
		t.Fatalf("Size = %d words, %d objects; wrote %d words about one object", words, objects, len(w.Words()))
	}

	dst := node{a: &leaf{1}, ids: []int32{5, 5, 5}}
	r := NewReader(w.Words())
	dst.run(r)
	r.Done()
	if dst.a == nil || dst.a != dst.b || dst.a == shared || dst.a.v != 7 {
		t.Fatalf("payload came back as %v and %v: want one fresh object for both", dst.a, dst.b)
	}
	if dst.at != -1 || !dst.flag || len(dst.ids) != 2 || dst.ids[0] != -3 || dst.ids[1] != 1<<30 || dst.stat != 9 {
		t.Fatalf("read back %+v from %+v", dst, src)
	}

	shared.v = 8 // the live object moves on; a replay rewinds it in place
	dst = node{}
	dst.run(w.Replay())
	if dst.a != shared || dst.b != shared || shared.v != 7 {
		t.Fatalf("replay resolved to %p and %p with v=%d, want the written object %p rewound to 7", dst.a, dst.b, shared.v, shared)
	}

	var none node
	w = NewWriter(0, 0)
	none.run(w)
	dst = node{a: shared, b: shared}
	dst.run(NewReader(w.Words()))
	if dst.a != nil || dst.b != nil {
		t.Fatal("nil references did not come back nil")
	}
}

// TestLengthMismatchPanics: a Checkpoint method that reads less or more than
// was written is a bug, and says so.
func TestLengthMismatchPanics(t *testing.T) {
	n := node{a: &leaf{1}}
	w := NewWriter(0, 0)
	n.run(w)
	short := NewReader(w.Words())
	var x int
	Int(short, &x)
	if !panics(short.Done) {
		t.Fatal("Done accepted unread words")
	}
	long := NewReader(w.Words()[:2])
	if !panics(func() { n.run(long) }) {
		t.Fatal("reading past the end did not panic")
	}
}

// TestHashClasses: the hash takes state raw, cycles by their distance from
// now with sentinels apart, sharing into account, and unhashed fields not at
// all.
func TestHashClasses(t *testing.T) {
	sum := func(n node, now int64) uint64 {
		h := NewHasher(now)
		n.run(h)
		return h.Sum()
	}
	l := &leaf{1}
	base := node{a: l, b: l, at: 40, stat: 1}
	shifted, counted, raw, never, apart := base, base, base, base, base
	shifted.at = 140
	counted.stat = 2
	raw.flag = true
	never.at = -60 // not the distance of cycle 40 from cycle 100
	apart.b = &leaf{1}
	if sum(base, 100) != sum(shifted, 200) {
		t.Error("the same distance from now hashed differently")
	}
	if sum(base, 100) != sum(counted, 100) {
		t.Error("an unhashed field moved the hash")
	}
	for name, other := range map[string]node{"a flag": raw, "a sentinel": never, "unshared payload": apart} {
		if sum(base, 100) == sum(other, 100) {
			t.Errorf("%s did not move the hash", name)
		}
	}
}
