package simsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// decodeSpecReference is the decoder DecodeSpec must agree with, and the one
// POST /v1/runs used before it: encoding/json's Decoder, unknown fields refused.
func decodeSpecReference(body []byte) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzDecodeSpec: for any body, DecodeSpec returns what encoding/json's
// Decoder returns for the same bytes: the same value and the same error. The
// seeds are what the one-pass reader must hand over rather than read itself.
func FuzzDecodeSpec(f *testing.F) {
	for _, body := range []string{
		tinySpecJSON,
		`{}`,
		" \t\r\n{ \"vcs\" : 4 , \"radix\" : [ 2 , 3 ] } \n",
		`{"scheme":"dr","pattern":"PAT280","trace_app":"","radix":[4,4],"mesh":true,"bristling":2,"vcs":8,"flitbuf":4,"queue_cap":32,"queue_mode":"class","service_time":7,"rate":0.0125,"max_outstanding":-1,"seed":18446744073709551615,"warmup":-1,"measure":3000,"max_drain":-1,"cwg_interval":-1,"check":false}`,
		`{"vcs":01}`,
		`{"radix":[01]}`,
		`{"rate":01.5}`,
		`{"vcs":-0}`,
		`{"seed":-0}`,
		`{"rate":-0}`,
		`{"rate":-0.0e-0}`,
		`{"measure":1e3}`,
		`{"rate":1e3}`,
		`{"rate":1E+400}`,
		`{"rate":.5}`,
		`{"rate":5.}`,
		`{"rate":1e}`,
		`{"rate":-}`,
		`{"rate":0x10}`,
		`{"rate":Infinity}`,
		`{"seed":9223372036854775808}`,
		`{"warmup":9223372036854775808}`,
		`{"warmup":-9223372036854775808}`,
		`{"warmup":-9223372036854775809}`,
		`{"seed":18446744073709551616}`,
		`{"vcs":4.0}`,
		`{"vcs":"4"}`,
		`{"scheme":4}`,
		`{"mesh":1}`,
		`{"mesh":tru}`,
		`{"mesh":truex}`,
		`{"Scheme":"PR"}`,
		"{\"\u017fcheme\":\"PR\"}",
		`{"\u017fcheme":"PR"}`,
		`{"scheme":"P\u0052"}`,
		`{"SCHEME":"PR","scheme":"DR"}`,
		`{"scheme":"PR"}`,
		`{"scheme":"P\\R"}`,
		`{"scheme":"P\"R"}`,
		"{\"scheme\":\"P\xffR\"}",
		"{\"scheme\":\"PRé\"}",
		"{\"scheme\":\"P\tR\"}",
		"{\"scheme\":\"P\x7fR\"}",
		`{"vcs":4,"vcs":5}`,
		`{"radix":[1,2,3],"radix":[4]}`,
		`{"radix":[]}`,
		`{"radix":[1,]}`,
		`{"radix":[,1]}`,
		`{"radix":[1 2]}`,
		`{"radix":[1,2}`,
		`{"radix":null}`,
		`{"scheme":null}`,
		`null`,
		"\xef\xbb\xbf{}",
		`{"vcs":4}x`,
		`{"vcs":4} {"vcs":5}`,
		`{"vcs":4`,
		`{"vcs":4,}`,
		`{,"vcs":4}`,
		`{"vcs" 4}`,
		`{"frobnicate":1}`,
		`{"":1}`,
		`[]`,
		``,
		` `,
		`{"radix":[4,4],"faults":{"events":[{"kind":"link-down","at":0,"router":9,"dir":0},{"kind":"token-loss","at":800}]}}`,
		`{"faults":null}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeSpec(body)
		want, wantErr := decodeSpecReference(body)
		if errString(err) != errString(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeSpec(%q) = %+v, %v\nencoding/json: %+v, %v", body, got, err, want, wantErr)
		}
	})
}

// TestDecodeSpecTakesEveryField: the one-pass reader takes a body setting any
// one of RunSpec's fields but the fault plan, so a field added to RunSpec
// without a case in specParser.member fails here rather than sending every
// spec that sets it down the slow path.
func TestDecodeSpecTakesEveryField(t *testing.T) {
	rt := reflect.TypeOf(RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		tag, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if tag == "faults" {
			continue
		}
		var value string
		switch field.Type.Kind() {
		case reflect.String:
			value = `"x"`
		case reflect.Bool:
			value = `true`
		case reflect.Int, reflect.Int64, reflect.Uint64:
			value = `7`
		case reflect.Float64:
			value = `0.5`
		case reflect.Slice:
			value = `[2,3]`
		default:
			t.Errorf("field %s: no test value for a %s", field.Name, field.Type)
			continue
		}
		body := []byte(fmt.Sprintf(`{%q:%s}`, tag, value))
		got, ok := decodeSpecFast(body)
		if !ok {
			t.Errorf("%s: not taken by the one-pass reader", body)
			continue
		}
		want, err := decodeSpecReference(body)
		if err != nil || !reflect.DeepEqual(got, want) || reflect.ValueOf(got).Field(i).IsZero() {
			t.Errorf("%s: read %+v, encoding/json reads %+v, %v", body, got, want, err)
		}
	}
}

// FuzzJSONString: appendJSONString writes any string as json.Marshal does.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{"", "j-000001", "<a href=\"&\">", "\u2028\u2029", "\xff\xfe", "\x00\b\f\n\r\t\x1f\x7f", `\"/`, "é€𝄞", "\xed\xa0\x80", "a\xc3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal writes %s", s, got[1:], want)
		}
	})
}
