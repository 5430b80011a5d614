package wire

import (
	"strconv"
	"unicode/utf8"
)

// AppendOutcomeJSON appends the outcome's JSON encoding to dst and
// returns the extended slice. The /v1 handlers encode every response
// line with it: no reflection, and no allocation once dst has room.
// The bytes equal json.Marshal(o), HTML escaping included;
// FuzzAppendOutcomeJSONMatchesJSON holds that equivalence.
func AppendOutcomeJSON(dst []byte, o Outcome) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(o.V), 10)
	if o.ID != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, o.ID, 10)
	}
	dst = append(dst, `,"status":`...)
	dst = appendJSONString(dst, string(o.Status))
	if o.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, string(o.Code))
	}
	if o.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = appendJSONString(dst, o.Detail)
	}
	if o.Applied {
		dst = append(dst, `,"applied":true`...)
	}
	if o.Account != 0 {
		dst = append(dst, `,"account":`...)
		dst = strconv.AppendUint(dst, o.Account, 10)
	}
	if o.Post != 0 {
		dst = append(dst, `,"post":`...)
		dst = strconv.AppendUint(dst, o.Post, 10)
	}
	if o.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = appendJSONString(dst, o.Token)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on (the json.Marshal default): `"` and
// `\` backslash-escaped; \b, \f, \n, \r and \t short-escaped; other
// control bytes and <, >, & as \u00XX; U+2028 and U+2029 as \u2028 and
// \u2029; each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
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
