package simsvc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// DecodeSpec decodes a submitted RunSpec, refusing unknown fields, as
// encoding/json's Decoder does: every value it accepts and every error it
// reports are the Decoder's for the same bytes. It is the one spec decoder of
// simserve's and simring's POST /v1/runs.
//
// The shape clients send — an object of RunSpec's own keys but "faults", with
// strings of printable ASCII, integers, numbers, booleans and an integer
// radix — is read in one pass without reflection. Anything else, a fault
// plan, a case-folded key, an escape, a null, trailing data or any error, is
// handed to the Decoder with the same bytes. FuzzDecodeSpec holds the two to
// each other.
func DecodeSpec(body []byte) (RunSpec, error) {
	if spec, ok := decodeSpecFast(body); ok {
		return spec, nil
	}
	var spec RunSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// decodeSpecFast is DecodeSpec's one pass, which reports false for a body it
// does not take.
func decodeSpecFast(body []byte) (s RunSpec, ok bool) {
	p := specParser{b: body}
	if !p.eat('{') {
		return s, false
	}
	if !p.eat('}') {
		for {
			key, ok := p.text()
			if !ok || !p.eat(':') || !p.member(&s, key) {
				return s, false
			}
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return s, false
			}
		}
	}
	p.space()
	return s, p.i == len(body)
}

// specParser reads decodeSpecFast's subset of JSON from b, from byte i on.
type specParser struct {
	b []byte
	i int
}

// member reads the value of key into its field of s. A key that is not a
// field's tag spelled exactly, "faults" among them, is not taken.
func (p *specParser) member(s *RunSpec, key []byte) (ok bool) {
	switch string(key) {
	case "scheme":
		s.Scheme, ok = p.str()
	case "pattern":
		s.Pattern, ok = p.str()
	case "trace_app":
		s.TraceApp, ok = p.str()
	case "radix":
		s.Radix, ok = p.ints()
	case "mesh":
		s.Mesh, ok = p.boolean()
	case "bristling":
		s.Bristling, ok = p.int()
	case "vcs":
		s.VCs, ok = p.int()
	case "flitbuf":
		s.FlitBuf, ok = p.int()
	case "queue_cap":
		s.QueueCap, ok = p.int()
	case "queue_mode":
		s.QueueMode, ok = p.str()
	case "service_time":
		s.ServiceTime, ok = p.int()
	case "rate":
		s.Rate, ok = p.float()
	case "max_outstanding":
		s.MaxOutstanding, ok = p.int()
	case "seed":
		s.Seed, ok = p.uint64()
	case "warmup":
		s.Warmup, ok = p.signed(64)
	case "measure":
		s.Measure, ok = p.signed(64)
	case "max_drain":
		s.MaxDrain, ok = p.signed(64)
	case "cwg_interval":
		s.CWGInterval, ok = p.signed(64)
	case "detector":
		s.Detector, ok = p.str()
	case "check":
		s.Check, ok = p.boolean()
	}
	return ok
}

// space skips JSON white space.
func (p *specParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips white space and then c, if c is next.
func (p *specParser) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// text reads a string of printable ASCII without escapes, and returns what
// is between its quotes.
func (p *specParser) text() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for j := p.i; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i:j]
			p.i = j + 1
			return s, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *specParser) str() (string, bool) {
	s, ok := p.text()
	return string(s), ok
}

func (p *specParser) boolean() (bool, bool) {
	p.space()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		return false, true
	}
	return false, false
}

// number reads a number in JSON's grammar and returns its literal, and
// whether that is an integer: no fraction and no exponent.
func (p *specParser) number() (lit []byte, integer, ok bool) {
	p.space()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return nil, false, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return nil, false, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return nil, false, false
		}
		j, integer = k, false
	}
	lit, p.i = b[p.i:j], j
	return lit, integer, true
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer reads an integer literal and returns its sign and magnitude, which
// must fit a uint64.
func (p *specParser) integer() (neg bool, mag uint64, ok bool) {
	lit, integer, ok := p.number()
	if !ok || !integer {
		return false, 0, false
	}
	if lit[0] == '-' {
		neg, lit = true, lit[1:]
	}
	for _, c := range lit {
		d := uint64(c - '0')
		if mag > (math.MaxUint64-d)/10 {
			return false, 0, false
		}
		mag = mag*10 + d
	}
	return neg, mag, true
}

// signed reads an integer that fits a signed integer of the given bits; -0
// reads as 0, as strconv.ParseInt has it.
func (p *specParser) signed(bits uint) (int64, bool) {
	neg, mag, ok := p.integer()
	least := uint64(1) << (bits - 1) // the magnitude of the most negative value
	if !ok || mag > least || !neg && mag == least {
		return 0, false
	}
	if neg {
		return int64(-mag), true
	}
	return int64(mag), true
}

func (p *specParser) int() (int, bool) {
	v, ok := p.signed(strconv.IntSize)
	return int(v), ok
}

// uint64 reads a non-negative integer; strconv.ParseUint refuses -0 too.
func (p *specParser) uint64() (uint64, bool) {
	neg, mag, ok := p.integer()
	return mag, ok && !neg
}

// float reads a number as encoding/json reads one into a float64.
func (p *specParser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// ints reads an array of integers that each fit an int: [] is an empty slice,
// not nil.
func (p *specParser) ints() ([]int, bool) {
	if !p.eat('[') {
		return nil, false
	}
	var buf [8]int
	xs := buf[:0]
	if !p.eat(']') {
		for {
			x, ok := p.int()
			if !ok {
				return nil, false
			}
			xs = append(xs, x)
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return nil, false
			}
		}
	}
	return append(make([]int, 0, len(xs)), xs...), true
}

// appendJSONString appends s to dst as a JSON string, as encoding/json writes
// it with HTML escaping on: <, >, &, U+2028 and U+2029 escaped, control
// characters escaped, invalid UTF-8 replaced by U+FFFD. FuzzJSONString holds
// it to json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
