package stats_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/fleet"
	"gpushare/internal/server"
	"gpushare/internal/stats"
)

// The values a generated field draws from: the extremes of each kind,
// DynProbFinal's real range, and names json.Marshal must escape.
var (
	genInts    = []int64{0, 1, -1, 7, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	genFloats  = []float64{0, 1, 0.92, 0.1, 5e-324, 1e-300, 2.5e-7, 1e21, 123456789.125}
	genStrings = []string{"", "done", "gaussian", "memory-cache", `quo"te`, `back\slash`,
		"<html>&amp;", "tab\tnew\nline", "ünïcødé", "\u2028\u2029", "\x00\x1f", "bad\xffutf8", "😀"}
)

// gen fills v (settable) with a random value: every field of a struct,
// a slice of 0..4 elements or nil, a pointer set or nil.
func gen(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				gen(rng, v.Field(i))
			}
		}
	case reflect.Int, reflect.Int64:
		if rng.Intn(3) == 0 {
			v.SetInt(rng.Int63n(1<<20) - 1<<19)
		} else {
			v.SetInt(genInts[rng.Intn(len(genInts))])
		}
	case reflect.Float64:
		v.SetFloat(genFloats[rng.Intn(len(genFloats))])
	case reflect.String:
		v.SetString(genStrings[rng.Intn(len(genStrings))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Pointer:
		if rng.Intn(4) != 0 {
			v.Set(reflect.New(v.Type().Elem()))
			gen(rng, v.Elem())
		}
	case reflect.Slice:
		if n := rng.Intn(6) - 1; n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				gen(rng, v.Index(i))
			}
		}
	default:
		panic("gen: unhandled kind " + v.Kind().String())
	}
}

// mutations derive inputs json.Marshal never writes from canonical
// bytes: each is either taken by the fast path with the same result
// or left to encoding/json.
var mutations = []struct {
	name string
	f    func(rng *rand.Rand, b []byte) []byte
}{
	{"trailing-newline", func(_ *rand.Rand, b []byte) []byte { return append(b, '\n') }},
	{"whitespace", func(rng *rand.Rand, b []byte) []byte { return insertAfter(rng, b, ",:", " \n\t") }},
	{"reordered", reorder},
	{"unknown-field", func(_ *rand.Rand, b []byte) []byte {
		return append([]byte(`{"zz_unknown":[1,{"a":"}"}],`), b[1:]...)
	}},
	{"duplicate-key", func(rng *rand.Rand, b []byte) []byte {
		k := keys(b)
		if len(k) == 0 {
			return b
		}
		return append(append(b[:len(b)-1:len(b)-1], ','), k[rng.Intn(len(k))]+`0}`...)
	}},
	{"case-folded-key", func(rng *rand.Rand, b []byte) []byte {
		k := keys(b)
		if len(k) == 0 {
			return b
		}
		key := k[rng.Intn(len(k))]
		return bytes.Replace(b, []byte(key), []byte(strings.ToUpper(key)), 1)
	}},
	{"int-as-float", func(_ *rand.Rand, b []byte) []byte {
		return bytes.Replace(b, []byte(`0,`), []byte(`0.0,`), 1)
	}},
	{"null", func(rng *rand.Rand, b []byte) []byte {
		k := keys(b)
		if len(k) == 0 {
			return b
		}
		return append([]byte("{"+k[rng.Intn(len(k))]+"null,"), b[1:]...)
	}},
	{"int-bounds", func(_ *rand.Rand, b []byte) []byte {
		b = bytes.ReplaceAll(b, []byte("-9223372036854775808"), []byte("-9223372036854775809"))
		return bytes.ReplaceAll(b, []byte("9223372036854775807"), []byte("9223372036854775808"))
	}},
	{"raw-non-ascii", func(rng *rand.Rand, b []byte) []byte {
		raw := []string{"\xff", "é", "\x01"}[rng.Intn(3)]
		return bytes.Replace(b, []byte(`":"`), []byte(`":"`+raw), 1)
	}},
	{"unknown-key", func(rng *rand.Rand, b []byte) []byte {
		return insertKey(rng, b, `"zz_extra":`+unknownValues[rng.Intn(len(unknownValues))])
	}},
	{"unknown-key-bad-value", func(rng *rand.Rand, b []byte) []byte {
		return insertKey(rng, b, `"zz_extra":`+badValues[rng.Intn(len(badValues))])
	}},
	{"unknown-key-escaped", func(rng *rand.Rand, b []byte) []byte {
		return insertKey(rng, b, `"zz_\u0065xtra":1`)
	}},
	{"folded-key-as-unknown", func(rng *rand.Rand, b []byte) []byte {
		k := keys(b)
		if len(k) == 0 {
			return b
		}
		return insertKey(rng, b, strings.ToUpper(k[rng.Intn(len(k))])+`7`)
	}},
	{"truncated", func(rng *rand.Rand, b []byte) []byte { return b[:rng.Intn(len(b))] }},
	{"byte-flip", func(rng *rand.Rand, b []byte) []byte {
		c := append([]byte(nil), b...)
		c[rng.Intn(len(c))] = `{}[],:"-.e0\ n`[rng.Intn(14)]
		return c
	}},
}

// unknownValues are valid JSON values of every kind, as an unknown key
// may hold them; badValues are not JSON values at all.
var (
	unknownValues = []string{
		`{"a":[1,-2.5e+3,0,-0,1E-7,true,false,null,"x\"\\\/\b\f\n\r\t\u00e9"],"b":{},"c":{"d":[[]]}}`,
		`[]`, `[[[1]],{},[{"e":null}]]`, `{}`, `"esc\u0041\n"`, `"\ud83d\ude00"`, `"ünï \"}"`, `""`,
		`-0.5`, `123456789012345678901234567890`, `null`, `true`, `false`,
	}
	badValues = []string{`[1,]`, `{"a"}`, `{"a":}`, `"\x"`, `01`, `tru`, `"\u12g4"`, `[`, `-`, `1.`, `1e`, `"a` + "\x01" + `"`, `{1:2}`}
)

// insertKey inserts `kv` as the first member of a random object of b.
func insertKey(rng *rand.Rand, b []byte, kv string) []byte {
	var at []int
	for i := 1; i < len(b); i++ {
		if b[i-1] == '{' {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return b
	}
	i := at[rng.Intn(len(at))]
	sep := ","
	if b[i] == '}' {
		sep = ""
	}
	return append(append(append([]byte(nil), b[:i]...), kv+sep...), b[i:]...)
}

// keys lists the `"name":` tokens of b.
func keys(b []byte) []string {
	var k []string
	for i := 0; i < len(b); {
		j := bytes.Index(b[i:], []byte(`":`))
		if j < 0 {
			break
		}
		start := bytes.LastIndexByte(b[:i+j], '"')
		if start >= 0 {
			k = append(k, string(b[start:i+j+2]))
		}
		i += j + 2
	}
	return k
}

func insertAfter(rng *rand.Rand, b []byte, after, ws string) []byte {
	var at []int
	for i, c := range b {
		if strings.IndexByte(after, c) >= 0 {
			at = append(at, i+1)
		}
	}
	if len(at) == 0 {
		return b
	}
	i := at[rng.Intn(len(at))]
	return append(append(append([]byte(nil), b[:i]...), ws[rng.Intn(len(ws))]), b[i:]...)
}

// reorder re-encodes the top-level object with its keys sorted, which
// is not declaration order.
func reorder(_ *rand.Rand, b []byte) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(b, &m) != nil {
		return b
	}
	out, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return out
}

// same decodes b with Unmarshal and with json.Unmarshal into fresh
// values of v's type and reports any difference in value or error.
func same(b []byte, v any) error {
	t := reflect.TypeOf(v).Elem()
	want, got := reflect.New(t).Interface(), reflect.New(t).Interface()
	wantErr, err := json.Unmarshal(b, want), stats.Unmarshal(b, got)
	if fmt.Sprintf("%T %v", err, err) != fmt.Sprintf("%T %v", wantErr, wantErr) {
		return fmt.Errorf("error %v, encoding/json says %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("decoded %+v, encoding/json decoded %+v", got, want)
	}
	return nil
}

// TestUnmarshalMatchesEncodingJSON is the fast path's differential
// property: on generated statistics and job statuses of both daemons it
// takes the canonical bytes and decodes them as encoding/json does, and
// on every mutation of them it agrees with encoding/json, value and
// error.
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, v := range []any{&stats.GPU{}, &server.JobStatus{}, &fleet.JobStatus{}} {
		typ := reflect.TypeOf(v).Elem()
		t.Run(typ.String(), func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				val := reflect.New(typ)
				gen(rng, val.Elem())
				b, err := json.Marshal(val.Interface())
				if err != nil {
					t.Fatal(err)
				}
				if !stats.FastPath(b, reflect.New(typ).Interface()) {
					t.Fatalf("fast path refused canonical bytes %s", b)
				}
				if err := same(b, v); err != nil {
					t.Fatalf("canonical %s: %v", b, err)
				}
				for _, m := range mutations {
					if mb := m.f(rng, b); len(mb) > 0 {
						if err := same(mb, v); err != nil {
							t.Fatalf("%s of %s:\n%s\n%v", m.name, b, mb, err)
						}
					}
				}
			}
		})
	}
}

// TestUnmarshalSkipsUnknownKeys: a key no field has, holding any JSON
// value, keeps the document on the fast path, at the top level and in
// nested objects, and decodes as encoding/json decodes it.
func TestUnmarshalSkipsUnknownKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, v := range []any{&stats.GPU{}, &server.JobStatus{}} {
		typ := reflect.TypeOf(v).Elem()
		t.Run(typ.String(), func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				val := reflect.New(typ)
				gen(rng, val.Elem())
				b, err := json.Marshal(val.Interface())
				if err != nil {
					t.Fatal(err)
				}
				for n := rng.Intn(3); n >= 0; n-- {
					b = insertKey(rng, b, `"zz_extra":`+unknownValues[rng.Intn(len(unknownValues))])
				}
				if !stats.FastPath(b, reflect.New(typ).Interface()) {
					t.Fatalf("fast path refused unknown keys in %s", b)
				}
				if err := same(b, v); err != nil {
					t.Fatalf("%s: %v", b, err)
				}
			}
		})
	}
}

// TestGschedStatusDecodesAsGserved: what gsched answers, a fleet
// JobStatus, read as the server.JobStatus the client decodes into,
// takes the fast path — its tenant, priority, worker, requeues and
// preemptions skipped — to encoding/json's value.
func TestGschedStatusDecodesAsGserved(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		var fs fleet.JobStatus
		gen(rng, reflect.ValueOf(&fs).Elem())
		fs.Tenant, fs.Priority, fs.Worker, fs.Requeues, fs.Preemptions = "alice", 3, "127.0.0.1:8377", 2, 1
		b, err := json.Marshal(&fs)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.FastPath(b, new(server.JobStatus)) {
			t.Fatalf("fast path refused a gsched status as a gserved one: %s", b)
		}
		if err := same(b, &server.JobStatus{}); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
	}
}

// TestUnmarshalFallsBack covers the inputs the fast path never takes: a
// type without a plan, a target that is not zero, and a nil pointer.
func TestUnmarshalFallsBack(t *testing.T) {
	b := []byte(`{"state":"serving","job_states":{"done":2},"workers":1}`)
	var st, want server.Statusz
	if err := stats.Unmarshal(b, &st); err != nil || json.Unmarshal(b, &want) != nil || !reflect.DeepEqual(st, want) {
		t.Errorf("map-holding type: %+v, %v; want %+v", st, err, want)
	}
	g := stats.GPU{Cycles: 5, ResidentTB: 3}
	wantG := g
	in := []byte(`{"Cycles":9}`)
	if err := stats.Unmarshal(in, &g); err != nil || json.Unmarshal(in, &wantG) != nil || !reflect.DeepEqual(g, wantG) {
		t.Errorf("non-zero target: %+v, %v; want %+v", g, err, wantG)
	}
	var none *stats.GPU
	if err, want := stats.Unmarshal(in, none), json.Unmarshal(in, none); err == nil || err.Error() != want.Error() {
		t.Errorf("nil pointer: %v, want %v", err, want)
	}
}
