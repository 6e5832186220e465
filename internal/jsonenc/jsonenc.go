// Package jsonenc holds the reflection-free JSON value encoders shared by
// the hand-rolled wire encoders (trace.AppendResult, the serving layer's
// row encoders). Each appends exactly the bytes encoding/json emits for the
// same value — HTML escaping on, shortest float representation — so output
// written through them stays byte-comparable with encoding/json, which the
// callers keep as their test oracle.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f exactly as encoding/json does: shortest
// representation, 'f' format except for magnitudes outside [1e-6, 1e21)
// which use 'e' with the exponent's leading zero trimmed. ok is false, and
// dst unchanged, for the values JSON cannot represent (NaN, ±Inf).
func AppendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// AppendString appends src as a quoted JSON string the way encoding/json's
// encoder does with HTML escaping on: <, >, & and controls escaped,
// \b \f \n \r \t shorthands, invalid UTF-8 replaced by a literal �
// escape, U+2028/U+2029 escaped for JavaScript embedding.
func AppendString[S []byte | string](dst []byte, src S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from a string of at most one rune's bytes: free for a string
		// source, a stack copy for a byte slice (encoding/json does the same).
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
