package otrace

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSONL record format is defined as encoding/json's output for an
// Event: the struct's field order, its omitempty rules (a -0 Value is
// empty too), HTML-safe string escaping, and json's ES6-style float
// format. appendJSON writes exactly those bytes without reflection or
// allocation; FuzzJSONLEncode pins it to json.Marshal byte for byte,
// so the json struct tags on Event stay the format's single source of
// truth (readLines still decodes through them).

// appendJSON appends ev's JSON object, without a trailing newline, to
// dst. Like json.Marshal it rejects a NaN or infinite Value; dst may
// then hold a partial record.
func appendJSON(dst []byte, ev *Event) ([]byte, error) {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, ev.T, 10)
	dst = append(dst, `,"ev":`...)
	dst = appendJSONString(dst, string(ev.Ev))
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(ev.Seq), 10)
	dst = appendStringField(dst, `,"flow":`, ev.Flow)
	dst = appendStringField(dst, `,"queue":`, ev.Queue)
	dst = appendStringField(dst, `,"dir":`, ev.Dir)
	dst = appendIntField(dst, `,"qlen":`, int64(ev.QLen))
	dst = appendIntField(dst, `,"sent_ns":`, ev.SentNs)
	dst = appendIntField(dst, `,"recv_ns":`, ev.RecvNs)
	dst = appendIntField(dst, `,"rtt_ns":`, ev.RTTNs)
	dst = appendStringField(dst, `,"fault":`, ev.Fault)
	dst = appendIntField(dst, `,"dur_ns":`, ev.DurNs)
	dst = appendStringField(dst, `,"name":`, ev.Name)
	dst = appendIntField(dst, `,"delta_ns":`, ev.DeltaNs)
	dst = appendIntField(dst, `,"payload_bytes":`, int64(ev.PayloadBytes))
	dst = appendIntField(dst, `,"wire_bytes":`, int64(ev.WireBytes))
	dst = appendIntField(dst, `,"bottleneck_bps":`, ev.BottleneckBps)
	dst = appendIntField(dst, `,"clock_res_ns":`, ev.ClockResNs)
	dst = appendIntField(dst, `,"count":`, int64(ev.Count))
	dst = appendStringField(dst, `,"job":`, ev.Job)
	dst = appendIntField(dst, `,"index":`, int64(ev.Index))
	dst = appendIntField(dst, `,"seed":`, ev.Seed)
	dst = appendIntField(dst, `,"probes":`, int64(ev.Probes))
	dst = appendIntField(dst, `,"losses":`, int64(ev.Losses))
	if v := ev.Value; v != 0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
		}
		dst = append(dst, `,"value":`...)
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, '}'), nil
}

// appendStringField appends an omitempty string field: key is the
// leading comma, the quoted name, and the colon.
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONFloat formats a finite float as encoding/json does: 'f'
// notation, or 'e' below 1e-6 and from 1e21 up, with the exponent's
// leading zero dropped (e-09 → e-9).
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// htmlSafe marks the ASCII bytes encoding/json copies through verbatim
// with HTML escaping on: printable characters other than the quote,
// the backslash, and < > &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with
// encoding/json's escaping: short escapes for the quote, backslash and
// \b \f \n \r \t; \u00XX for the other control bytes and < > &;
// \u2028 and \u2029 for the JavaScript line separators; and \ufffd for
// each byte of invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
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
