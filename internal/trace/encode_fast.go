package trace

import (
	"fmt"
	"net/netip"
	"strconv"

	"pinpoint/internal/jsonenc"
)

// AppendResult appends the Atlas wire encoding of r to dst and returns the
// extended slice. The output is byte-identical to Result.MarshalJSON
// (asserted by TestAppendResultGolden and the differential fuzzer): same
// field order, same float formatting, same string escaping — so streams
// written through the fast path stay comparable with golden files recorded
// through encoding/json. The only error is an RTT that JSON cannot
// represent (NaN or infinity), mirroring json.Marshal's rejection.
func AppendResult(dst []byte, r Result) ([]byte, error) {
	dst = append(dst, `{"msm_id":`...)
	dst = strconv.AppendInt(dst, int64(r.MsmID), 10)
	dst = append(dst, `,"prb_id":`...)
	dst = strconv.AppendInt(dst, int64(r.PrbID), 10)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, r.Time.Unix(), 10)
	dst = append(dst, `,"src_addr":`...)
	dst = appendAddr(dst, r.Src)
	dst = append(dst, `,"dst_addr":`...)
	dst = appendAddr(dst, r.Dst)
	dst = append(dst, `,"paris_id":`...)
	dst = strconv.AppendInt(dst, int64(r.ParisID), 10)
	dst = append(dst, `,"result":[`...)
	for i, h := range r.Hops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"hop":`...)
		dst = strconv.AppendInt(dst, int64(h.Index), 10)
		dst = append(dst, `,"result":[`...)
		for j, rep := range h.Replies {
			if j > 0 {
				dst = append(dst, ',')
			}
			if rep.Timeout {
				dst = append(dst, `{"x":"*"}`...)
				continue
			}
			dst = append(dst, `{"from":`...)
			dst = appendAddr(dst, rep.From)
			dst = append(dst, `,"rtt":`...)
			var err error
			dst, err = appendRTT(dst, rep.RTT)
			if err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `]}`...)
	}
	dst = append(dst, `]}`...)
	return dst, nil
}

// appendAddr appends the quoted JSON encoding of an address. For valid
// zoneless addresses Addr.AppendTo emits only [0-9a-f.:], which never needs
// escaping; zones can carry arbitrary text, so they route through the full
// escaper. The zero Addr stringifies as "invalid IP" (Addr.String's
// behavior, which the reference encoder goes through).
func appendAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(dst, `"invalid IP"`...)
	}
	if a.Zone() == "" {
		dst = append(dst, '"')
		dst = a.AppendTo(dst)
		return append(dst, '"')
	}
	return jsonenc.AppendString(dst, a.AppendTo(make([]byte, 0, 64)))
}

// appendRTT appends a float exactly as encoding/json does.
func appendRTT(dst []byte, f float64) ([]byte, error) {
	dst, ok := jsonenc.AppendFloat(dst, f)
	if !ok {
		return dst, fmt.Errorf("trace: unsupported rtt value %v", f)
	}
	return dst, nil
}
