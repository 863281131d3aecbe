package trace

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/sysc"
)

// Append-style JSON scalars shared by the Perfetto exporter and the metrics
// report. Each produces exactly the bytes encoding/json's Marshal writes for
// the same value, so the hand-encoded artifacts stay byte-identical to the
// reflective ones they replaced; the package tests hold them to that against
// encoding/json itself.

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports whether ASCII byte b stands for itself in a JSON
// string: any byte from space up except " \ < > &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string with encoding/json's escaping:
// HTML-safe (<, > and & become \u003c, \u003e, \u0026), U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
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
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' notation, or in 'e' notation below 1e-6
// and from 1e21 up with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). NaN and ±Inf have no JSON form: dst comes back unchanged with an
// error.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendUs appends simulation time t, in picoseconds, as the trace-event
// microseconds float64(t)/1e6 that AppendJSONFloat would write. Below 2^52
// ps every float64 step is finer than the 1e-6 µs digit, so that shortest
// decimal is exactly t/1e6 and integer arithmetic prints it; negative and
// larger times take the float path.
func appendUs(dst []byte, t sysc.Time) []byte {
	if t < 0 || t >= 1<<52 {
		dst, _ = AppendJSONFloat(dst, float64(t)/1e6)
		return dst
	}
	dst = strconv.AppendInt(dst, int64(t/1e6), 10)
	frac := int64(t % 1e6)
	if frac == 0 {
		return dst
	}
	var digits [7]byte // '.' and six fractional digits
	digits[0] = '.'
	for i := 6; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := 6
	for digits[n] == '0' {
		n--
	}
	return append(dst, digits[:n+1]...)
}
