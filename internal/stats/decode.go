package stats

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// Unmarshal is json.Unmarshal(b, v) for v a pointer to a zero value,
// with a fast path for the bytes json.Marshal emits of a plain struct
// type: a GPU, and the job statuses of gserved and gsched that carry
// one.
//
// The fast path reads objects whose keys appear as json.Marshal writes
// them: in declaration order, each at most once, any of them absent,
// with no whitespace but after the value. Where each field goes comes
// from a plan derived by reflection once per type, so no field list is
// kept by hand and no field costs a reflective call; an array is
// counted before its slice is allocated, so every slice is allocated
// once, at its length. Anything else — another key order, whitespace, an unknown or
// case-folded key, a null scalar, a number out of range, a type the
// plan does not cover — goes to encoding/json from a zero value again,
// and its result and error are the answer. So Unmarshal accepts what
// json.Unmarshal accepts, decodes it to the same value, and rejects
// the rest with json.Unmarshal's error.
func Unmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() && rv.Elem().IsZero() {
		if fast(b, rv) {
			return nil
		}
		rv.Elem().SetZero()
	}
	return json.Unmarshal(b, v)
}

// fast runs the fast path into the zero value rv points at and reports
// whether it took all of b.
func fast(b []byte, rv reflect.Value) bool {
	p := planOf(rv.Type().Elem())
	if p == nil {
		return false
	}
	d := decoder{b: b}
	return d.object(p, rv.UnsafePointer()) && d.end()
}

// A plan is how the fast path fills one struct type: its JSON fields in
// the order json.Marshal writes them, embedded structs flattened.
type plan struct {
	fields []field
	size   uintptr // the struct's size: a slice element's stride
}

type field struct {
	key  string // `"name":` as json.Marshal writes it
	off  uintptr
	kind reflect.Kind
	typ  reflect.Type // the field's type, to allocate a pointer or slice
	elem *plan        // the struct a Struct, Pointer or Slice field holds
}

// plans caches planOf by type; a nil plan marks a type the fast path
// leaves to encoding/json.
var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := build(t, map[reflect.Type]bool{})
	plans.Store(t, p)
	return p
}

var (
	unmarshalerType     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshalerType = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// custom reports whether values of t decode themselves.
func custom(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	return pt.Implements(unmarshalerType) || pt.Implements(textUnmarshalerType)
}

// build derives t's plan, or nil when t is not a struct the fast path
// covers: one that decodes itself, is recursive (open holds the types
// being built), has a field of a kind below or a tag encoding/json
// reads otherwise, or has two fields of one name.
func build(t reflect.Type, open map[reflect.Type]bool) *plan {
	if t.Kind() != reflect.Struct || custom(t) || open[t] {
		return nil
	}
	open[t] = true
	defer delete(open, t)
	p := &plan{size: t.Size()}
	if !p.flatten(t, 0, open) {
		return nil
	}
	seen := make(map[string]bool, len(p.fields))
	for _, f := range p.fields {
		if seen[f.key] {
			return nil // encoding/json's dominance rules decide; leave it to them
		}
		seen[f.key] = true
	}
	return p
}

// flatten appends the JSON fields of struct t, placed at off in the
// outer struct, following encoding/json's rules for tags, unexported
// fields and embedded structs.
func (p *plan) flatten(t reflect.Type, off uintptr, open map[reflect.Type]bool) bool {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		switch {
		case sf.Anonymous && sf.Type.Kind() == reflect.Pointer:
			return false
		case sf.Anonymous && sf.Type.Kind() == reflect.Struct && name == "":
			if !p.flatten(sf.Type, off+sf.Offset, open) {
				return false
			}
			continue
		case !sf.IsExported():
			continue
		}
		for _, o := range strings.Split(opts, ",") {
			if o == "string" {
				return false
			}
		}
		if name == "" {
			name = sf.Name
		}
		if !plainName(name) || custom(sf.Type) {
			return false
		}
		f := field{key: `"` + name + `":`, off: off + sf.Offset, kind: sf.Type.Kind(), typ: sf.Type}
		switch f.kind {
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64, reflect.String:
		case reflect.Struct:
			if f.elem = build(sf.Type, open); f.elem == nil {
				return false
			}
		case reflect.Pointer, reflect.Slice:
			if f.elem = build(sf.Type.Elem(), open); f.elem == nil {
				return false
			}
		default:
			return false
		}
		p.fields = append(p.fields, f)
	}
	return true
}

// plainName reports whether a JSON name is one json.Marshal writes
// verbatim and encoding/json accepts as a tag.
func plainName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return s != ""
}

// decoder reads b from i. Every method reports false at the first byte
// the fast path does not take, and Unmarshal then falls back.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) lit(s string) bool {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// end reports whether only whitespace follows the value.
func (d *decoder) end() bool {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

// object fills the zero struct at base. Each key must be one of the
// fields after the previous key's, those between having been omitted.
func (d *decoder) object(p *plan, base unsafe.Pointer) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	fs := p.fields
	for {
		k := 0
		for k < len(fs) && !d.lit(fs[k].key) {
			k++
		}
		if k == len(fs) {
			return false
		}
		f := &fs[k]
		fs = fs[k+1:]
		if !d.value(f, unsafe.Add(base, f.off)) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// value fills the zero field at p. A null pointer or slice stays nil,
// as encoding/json leaves it.
func (d *decoder) value(f *field, p unsafe.Pointer) bool {
	switch f.kind {
	case reflect.Bool:
		switch {
		case d.lit("true"):
			*(*bool)(p) = true
		case !d.lit("false"):
			return false
		}
	case reflect.Int:
		n, ok := d.int()
		if !ok || int64(int(n)) != n {
			return false
		}
		*(*int)(p) = int(n)
	case reflect.Int64:
		n, ok := d.int()
		if !ok {
			return false
		}
		*(*int64)(p) = n
	case reflect.Float64:
		x, ok := d.float()
		if !ok {
			return false
		}
		*(*float64)(p) = x
	case reflect.String:
		s, ok := d.string()
		if !ok {
			return false
		}
		*(*string)(p) = s
	case reflect.Struct:
		return d.object(f.elem, p)
	case reflect.Pointer:
		if d.lit("null") {
			return true
		}
		q := reflect.New(f.typ.Elem()).UnsafePointer()
		*(*unsafe.Pointer)(p) = q
		return d.object(f.elem, q)
	case reflect.Slice:
		if d.lit("null") {
			return true
		}
		n := d.count()
		if n < 0 {
			return false
		}
		s := reflect.NewAt(f.typ, p).Elem()
		if n == 0 {
			s.Set(reflect.MakeSlice(f.typ, 0, 0)) // [] is empty, not nil
		}
		s.Grow(n)
		s.SetLen(n)
		q := s.UnsafePointer()
		d.i++ // the '['
		for k := 0; k < n; k++ {
			if k > 0 && !d.eat(',') {
				return false
			}
			if !d.object(f.elem, unsafe.Add(q, uintptr(k)*f.elem.size)) {
				return false
			}
		}
		return d.eat(']')
	}
	return true
}

// count returns the number of elements of the array at d.i, or -1 when
// there is none. It only counts brackets and commas; the elements are
// read strictly once the slice is allocated, and a miscount fails there.
func (d *decoder) count() int {
	b := d.b
	if d.i+1 >= len(b) || b[d.i] != '[' {
		return -1
	}
	if b[d.i+1] == ']' {
		return 0
	}
	n, depth := 1, 0
	for i := d.i; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return -1
}

// int reads a JSON integer that fits an int64.
func (d *decoder) int() (int64, bool) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	switch n := i - start; {
	case n == 0, n > 1 && b[start] == '0', n > 19:
		return 0, false
	case neg && u <= 1<<63:
		d.i = i
		return -int64(u), true
	case !neg && u < 1<<63:
		d.i = i
		return int64(u), true
	}
	return 0, false
}

// float reads a JSON number as encoding/json does: its bytes, checked
// against the JSON grammar, through strconv.ParseFloat.
func (d *decoder) float() (float64, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i == 0 {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i == 0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i == 0 {
			return 0, false
		}
	}
	// ParseFloat keeps no reference to its argument once it returns.
	x, err := strconv.ParseFloat(unsafe.String(&b[d.i], i-d.i), 64)
	if err != nil {
		return 0, false
	}
	d.i = i
	return x, true
}

// digits returns the index after the run of decimal digits at i, or 0
// when there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return 0
	}
	return j
}

// string reads a JSON string. One holding an escape or a byte outside
// printable ASCII goes through encoding/json — the token alone, not the
// document — which decodes escapes and replaces invalid UTF-8 its way.
func (d *decoder) string() (string, bool) {
	b := d.b
	if !d.eat('"') {
		return "", false
	}
	for i := d.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := string(b[d.i:i])
			d.i = i + 1
			return s, true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.quoted(d.i - 1)
		}
	}
	return "", false
}

// quoted reads the string token whose opening quote is at start.
func (d *decoder) quoted(start int) (string, bool) {
	b := d.b
	i := start + 1
	for ; i < len(b) && b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	if i >= len(b) {
		return "", false
	}
	var s string
	if json.Unmarshal(b[start:i+1], &s) != nil {
		return "", false
	}
	d.i = i + 1
	return s, true
}
