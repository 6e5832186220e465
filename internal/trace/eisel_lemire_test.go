package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestPow10WideTable recomputes every table entry with math/big: entry q
// must be the truncation of 10^q normalized to [2^127, 2^128) at binary
// exponent (217706·q>>16)−127. A single wrong word would silently produce
// misrounded floats, so the table is verified rather than trusted.
func TestPow10WideTable(t *testing.T) {
	if got, want := len(pow10wide), pow10wideMax-pow10wideMin+1; got != want {
		t.Fatalf("table has %d entries, want %d", got, want)
	}
	mask64 := new(big.Int).SetUint64(^uint64(0))
	for q := pow10wideMin; q <= pow10wideMax; q++ {
		shift := 127 - (217706*q)>>16
		m := new(big.Int)
		if q >= 0 {
			m.Exp(big.NewInt(10), big.NewInt(int64(q)), nil)
			if shift >= 0 {
				m.Lsh(m, uint(shift))
			} else {
				m.Rsh(m, uint(-shift))
			}
		} else {
			den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-q)), nil)
			m.Lsh(big.NewInt(1), uint(shift))
			m.Div(m, den)
		}
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: normalized form has %d bits, want 128", q, m.BitLen())
		}
		lo := new(big.Int).And(m, mask64).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		e := pow10wide[q-pow10wideMin]
		if e[0] != lo || e[1] != hi {
			t.Errorf("1e%d: table {%#x, %#x}, want {%#x, %#x}", q, e[0], e[1], lo, hi)
		}
	}
}

func checkEL(t *testing.T, man uint64, exp10 int, neg bool) {
	t.Helper()
	f, ok := eiselLemire64(man, exp10, neg)
	if !ok {
		return // declared ambiguous: the decoder declines the line
	}
	s := strconv.FormatUint(man, 10) + "e" + strconv.Itoa(exp10)
	if neg {
		s = "-" + s
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("oracle rejected %q: %v", s, err)
	}
	if gb, wb := math.Float64bits(f), math.Float64bits(want); gb != wb {
		t.Errorf("eiselLemire64(%d, %d, %v) = %v (%#x), ParseFloat(%q) = %v (%#x)",
			man, exp10, neg, f, gb, s, want, wb)
	}
}

// TestEiselLemireDifferential drives the kernel over the boundary shapes
// that break truncated-product implementations — powers of ten and two,
// all-nines mantissas, half-ulp neighbours — plus a large random sweep,
// and demands bit-identity with strconv.ParseFloat whenever ok=true.
func TestEiselLemireDifferential(t *testing.T) {
	edges := []uint64{
		0, 1, 2, 9, 10, 99, 100,
		1<<52 - 1, 1 << 52, 1<<52 + 1,
		1<<53 - 1, 1 << 53, 1<<53 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1,
		^uint64(0), ^uint64(0) - 1,
		9999999999999999999, // 19 nines: largest rttField mantissa
		1000000000000000000,
		5404319552844595, // 0.6 × 2^53-ish tie neighbourhood
	}
	for _, man := range edges {
		for q := pow10wideMin - 2; q <= pow10wideMax+2; q++ {
			checkEL(t, man, q, false)
			checkEL(t, man, q, true)
		}
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for n := 0; n < 200000; n++ {
		man := rng.Uint64()
		if n%3 == 0 {
			man %= 100000000000000000 // 17 digits, the 'g' format ceiling
		}
		q := int(rng.Int64N(110)) - 55
		checkEL(t, man, q, n%2 == 1)
	}
}

// TestDigitRun pins the SWAR digit-run kernel against a byte loop: every
// run length 0–8 followed by every byte value (including the 0xFA–0xFF
// bytes whose +6 carries into the next byte), with random digits and a
// random tail, must count the run exactly, and parseDigits must evaluate
// it exactly.
func TestDigitRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var b [8]byte
	for k := 0; k <= 8; k++ {
		for stop := 0; stop < 256; stop++ {
			if k < 8 && stop >= '0' && stop <= '9' {
				continue
			}
			for rep := 0; rep < 4; rep++ {
				for i := range b {
					b[i] = byte(rng.Uint32())
				}
				want := uint64(0)
				for i := 0; i < k; i++ {
					b[i] = '0' + byte(rng.IntN(10))
					want = want*10 + uint64(b[i]-'0')
				}
				if k < 8 {
					b[k] = byte(stop)
				}
				w := binary.LittleEndian.Uint64(b[:])
				if got := digitRun(w); got != k {
					t.Fatalf("digitRun(%q) = %d, want %d", b, got, k)
				}
				if k > 0 {
					if got := parseDigits(w, k); got != want {
						t.Fatalf("parseDigits(%q, %d) = %d, want %d", b, k, got, want)
					}
				}
			}
		}
	}
}

// TestRTTLongMantissa feeds full-precision 'g'-formatted RTTs through the
// whole decoder (the rttField 16–19 digit path) against encoding/json, at
// the end of a line and mid-line, where the digits go by SWAR chunks.
func TestRTTLongMantissa(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for n := 0; n < 2000; n++ {
		rtt := rng.Float64() * 300 // typical RTT magnitudes, full precision
		line := fmt.Sprintf(`{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":%[1]s},{"from":"10.0.0.2","rtt":%[1]s}]}]}`,
			strconv.FormatFloat(rtt, 'g', -1, 64))
		v, _, err := assertDifferential(t, line)
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		for _, got := range v.RTT {
			if math.Float64bits(got) != math.Float64bits(rtt) {
				t.Fatalf("rtt mismatch for %q: decoded %v want %v", line, got, rtt)
			}
		}
	}
}
