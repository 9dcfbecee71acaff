package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"anyscan/internal/cluster"
	"anyscan/internal/local"
)

// This file is the codec of the read payloads' O(|V|) integer arrays:
// Assignments.Labels/Roles (clusterings, job snapshots and results) and
// LocalResponse.Members/Roles. The server encodes the small envelope with
// encoding/json and appends the arrays with strconv.AppendInt straight from
// the cluster.Result or local.Result; the client parses them in
// Ints.UnmarshalJSON. Neither side reflects per element, and the bytes are
// the ones json.NewEncoder(w).Encode writes for the wire structs.

// Ints is the Go type of the read payloads' integer arrays. It decodes
// exactly as encoding/json decodes a []T, and encodes as one (it has no
// MarshalJSON).
type Ints[T int8 | int32] []T

// UnmarshalJSON decodes a JSON array of integers. Arrays whose elements are
// all plain integers that fit T are parsed directly; anything else (null,
// null elements, fractions, exponents, out-of-range numbers, strings,
// nesting, invalid JSON) is handed to encoding/json's own slice decoding, so
// every outcome, values and error, is the standard library's.
func (s *Ints[T]) UnmarshalJSON(data []byte) error {
	if out, ok := parseInts(data, []T(*s)); ok {
		*s = out
		return nil
	}
	return json.Unmarshal(data, (*[]T)(s))
}

// parseInts parses data as a JSON array of integers that fit T, reusing
// dst's storage when it is large enough, and reports false on anything
// else. By then it may have written dst's storage, but only at the indexes
// of leading elements that are such integers, which encoding/json writes
// with the same values: the fallback's outcome is unchanged.
func parseInts[T int8 | int32](data []byte, dst []T) ([]T, bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return nil, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return []T{}, skipSpace(data, i+1) == len(data)
	}
	// One element per comma plus one, when every element is an integer; a
	// comma after element k is the (k+1)th, so k+1 < n holds there.
	n := bytes.Count(data[i:], []byte{','}) + 1
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]T, n)
	}
	for k := 0; k < n; k++ {
		neg := i < len(data) && data[i] == '-'
		if neg {
			i++
		}
		// One digit and a comma, as every role and the noise label are:
		// about twice as fast as the general path below.
		if i+1 < len(data) && data[i+1] == ',' && '0' <= data[i] && data[i] <= '9' {
			v := T(data[i] - '0')
			if neg {
				v = -v
			}
			dst[k] = v
			i = skipSpace(data, i+2)
			continue
		}
		// At most 11 digits, so v cannot overflow; T's range is checked below.
		start, v := i, int64(0)
		for i < len(data) && i-start < 11 && '0' <= data[i] && data[i] <= '9' {
			v = v*10 + int64(data[i]-'0')
			i++
		}
		if i == start || (data[start] == '0' && i-start > 1) {
			return nil, false
		}
		if neg {
			v = -v
		}
		if int64(T(v)) != v {
			return nil, false
		}
		// Only a comma or the closing bracket may end the number; a '.',
		// 'e' or 'E' makes it a JSON number that is not written here.
		if i = skipSpace(data, i); i == len(data) {
			return nil, false
		}
		switch {
		case data[i] == ',':
			dst[k] = T(v)
			i = skipSpace(data, i+1)
		case data[i] == ']' && k+1 == n && skipSpace(data, i+1) == len(data):
			dst[k] = T(v)
			return dst, true
		default:
			return nil, false
		}
	}
	return nil, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\r' || data[i] == '\t') {
		i++
	}
	return i
}

// appendInts appends s as encoding/json encodes a slice: null when nil.
// Roles and the noise label -1 are one digit after the sign, so that case
// skips strconv (about 3.5 times faster on explore's labels).
func appendInts[T ~int8 | ~int32](b []byte, s []T) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		x := int64(v)
		if x < 0 {
			b, x = append(b, '-'), -x
		}
		if x < 10 {
			b = append(b, byte('0'+x))
		} else {
			b = strconv.AppendUint(b, uint64(x), 10)
		}
	}
	return append(b, ']')
}

// assignmentMembers appends r's assignments as a clustering payload's
// "assignments" member; nil (no members) unless with.
func assignmentMembers(r *cluster.Result, with bool) func([]byte) []byte {
	if !with {
		return nil
	}
	return func(b []byte) []byte {
		b = appendInts(append(b, `"assignments":{"labels":`...), r.Labels)
		return append(appendInts(append(b, `,"roles":`...), r.Roles), '}')
	}
}

// localMembers appends res's community as a local answer's "members" and
// "roles" members; nil (no members) unless with and the seed has a
// community.
func localMembers(res *local.Result, with bool) func([]byte) []byte {
	if !with || len(res.Members) == 0 {
		return nil
	}
	return func(b []byte) []byte {
		b = appendInts(append(b, `"members":`...), res.Members)
		return appendInts(append(b, `,"roles":`...), res.Roles)
	}
}

// appendBody appends to b the bytes json.NewEncoder(w).Encode writes for v
// once members, when non-nil, has added v's array members. v is a wire
// struct whose array fields are left empty, so encoding/json omits them,
// and the wire types declare those fields last: members appends them
// before v's closing brace.
func appendBody(b []byte, v any, members func([]byte) []byte) ([]byte, error) {
	env, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	if members == nil {
		b = append(b, env...)
	} else {
		b = append(members(append(append(b, env[:len(env)-1]...), ',')), '}')
	}
	return append(b, '\n'), nil
}

// bodies recycles response buffers, as encoding/json recycles its own.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeBody answers 200 with appendBody's bytes for v and members.
func writeBody(w http.ResponseWriter, v any, members func([]byte) []byte) {
	bp := bodies.Get().(*[]byte)
	b, err := appendBody((*bp)[:0], v, members)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	}
	*bp = b[:0]
	bodies.Put(bp)
}
