package stats

import "reflect"

// FastPath reports whether Unmarshal's fast path takes b into v, a
// pointer to a zero struct, without falling back to encoding/json.
func FastPath(b []byte, v any) bool { return fast(b, reflect.ValueOf(v)) }
