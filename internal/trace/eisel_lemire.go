package trace

// Eisel–Lemire float conversion for the decoder's long-mantissa numbers.
//
// The Clinger fast case in rttField handles mantissas of up to 15 digits
// with one exact divide, but Atlas dumps written by
// strconv.AppendFloat(.., 'g', -1, 64) routinely carry 16–17 significant
// digits. eiselLemire64 converts the already-scanned (mantissa, exp10)
// pair directly: one 128-bit multiply against a truncated power of ten,
// with an explicit ok=false whenever the truncated product cannot prove
// the rounding direction. The decoder declines those rare lines to the
// reference decoder, so an accepted RTT is bit-identical to
// strconv.ParseFloat's; FuzzDecodeDifferential and
// TestEiselLemireDifferential pin that equivalence.

import (
	"math"
	"math/bits"
)

const (
	pow10wideMin = -48
	pow10wideMax = 48
)

// eiselLemire64 returns the correctly-rounded float64 value of
// ±man × 10^exp10, or ok=false when correct rounding cannot be decided
// from the 128-bit truncated power (the decoder then declines the line).
// man must be the full untruncated decimal mantissa (≤ 19 digits).
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			return math.Float64frombits(1 << 63), true // -0
		}
		return 0, true
	}
	if exp10 < pow10wideMin || exp10 > pow10wideMax {
		return 0, false
	}

	// Normalize the mantissa and derive the binary exponent of the result:
	// 10^exp10 = m × 2^((217706·exp10>>16)−127) with m ∈ [2^127, 2^128),
	// so w×m sits at exponent (217706·exp10>>16) + 64 − clz + bias, before
	// the final 0/1 normalization shift below.
	clz := bits.LeadingZeros64(man)
	w := man << uint(clz)
	const bias = 1023
	retExp2 := uint64((217706*exp10)>>16+64+bias) - uint64(clz)

	// One truncated 128×64→128 multiply usually suffices: the rounding
	// decision only becomes uncertain when the low 9 bits of the high word
	// are all ones and adding the (discarded) low-half contribution could
	// carry. In that case refine with the second table word, and give up
	// only if the refined product is still saturated.
	pw := &pow10wide[exp10-pow10wideMin]
	xHi, xLo := bits.Mul64(w, pw[1])
	if xHi&0x1FF == 0x1FF && xLo+w < w {
		yHi, yLo := bits.Mul64(w, pw[0])
		mHi, mLo := xHi, xLo+yHi
		if mLo < xLo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+w < w {
			return 0, false
		}
		xHi, xLo = mHi, mLo
	}

	// The product's top bit is at position 127 or 126; shift down to a
	// 54-bit mantissa (53 + round bit) accordingly.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Round-to-even ambiguity: a discarded half exactly at the boundary
	// with a truncated product cannot be resolved here.
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1 // round half up…
	mant >>= 1       // …then drop the round bit (ties were filtered above)
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}

	// Subnormal or overflow: rare, left to the reference decoder.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := mant&0x000FFFFFFFFFFFFF | retExp2<<52
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// pow10wide[q-pow10wideMin] holds the normalized 128-bit truncation of 10^q
// as {lo, hi}: 10^q = m x 2^e with m in [2^127, 2^128), e = (217706*q>>16)-127.
var pow10wide = [...][2]uint64{
	{0x5560C018580D5D52, 0xBB127C53B17EC159}, // 1e-48
	{0xAAB8F01E6E10B4A6, 0xE9D71B689DDE71AF}, // 1e-47
	{0xCAB3961304CA70E8, 0x9226712162AB070D}, // 1e-46
	{0x3D607B97C5FD0D22, 0xB6B00D69BB55C8D1}, // 1e-45
	{0x8CB89A7DB77C506A, 0xE45C10C42A2B3B05}, // 1e-44
	{0x77F3608E92ADB242, 0x8EB98A7A9A5B04E3}, // 1e-43
	{0x55F038B237591ED3, 0xB267ED1940F1C61C}, // 1e-42
	{0x6B6C46DEC52F6688, 0xDF01E85F912E37A3}, // 1e-41
	{0x2323AC4B3B3DA015, 0x8B61313BBABCE2C6}, // 1e-40
	{0xABEC975E0A0D081A, 0xAE397D8AA96C1B77}, // 1e-39
	{0x96E7BD358C904A21, 0xD9C7DCED53C72255}, // 1e-38
	{0x7E50D64177DA2E54, 0x881CEA14545C7575}, // 1e-37
	{0xDDE50BD1D5D0B9E9, 0xAA242499697392D2}, // 1e-36
	{0x955E4EC64B44E864, 0xD4AD2DBFC3D07787}, // 1e-35
	{0xBD5AF13BEF0B113E, 0x84EC3C97DA624AB4}, // 1e-34
	{0xECB1AD8AEACDD58E, 0xA6274BBDD0FADD61}, // 1e-33
	{0x67DE18EDA5814AF2, 0xCFB11EAD453994BA}, // 1e-32
	{0x80EACF948770CED7, 0x81CEB32C4B43FCF4}, // 1e-31
	{0xA1258379A94D028D, 0xA2425FF75E14FC31}, // 1e-30
	{0x096EE45813A04330, 0xCAD2F7F5359A3B3E}, // 1e-29
	{0x8BCA9D6E188853FC, 0xFD87B5F28300CA0D}, // 1e-28
	{0x775EA264CF55347D, 0x9E74D1B791E07E48}, // 1e-27
	{0x95364AFE032A819D, 0xC612062576589DDA}, // 1e-26
	{0x3A83DDBD83F52204, 0xF79687AED3EEC551}, // 1e-25
	{0xC4926A9672793542, 0x9ABE14CD44753B52}, // 1e-24
	{0x75B7053C0F178293, 0xC16D9A0095928A27}, // 1e-23
	{0x5324C68B12DD6338, 0xF1C90080BAF72CB1}, // 1e-22
	{0xD3F6FC16EBCA5E03, 0x971DA05074DA7BEE}, // 1e-21
	{0x88F4BB1CA6BCF584, 0xBCE5086492111AEA}, // 1e-20
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
	{0x0000000000000000, 0xA000000000000000}, // 1e1
	{0x0000000000000000, 0xC800000000000000}, // 1e2
	{0x0000000000000000, 0xFA00000000000000}, // 1e3
	{0x0000000000000000, 0x9C40000000000000}, // 1e4
	{0x0000000000000000, 0xC350000000000000}, // 1e5
	{0x0000000000000000, 0xF424000000000000}, // 1e6
	{0x0000000000000000, 0x9896800000000000}, // 1e7
	{0x0000000000000000, 0xBEBC200000000000}, // 1e8
	{0x0000000000000000, 0xEE6B280000000000}, // 1e9
	{0x0000000000000000, 0x9502F90000000000}, // 1e10
	{0x0000000000000000, 0xBA43B74000000000}, // 1e11
	{0x0000000000000000, 0xE8D4A51000000000}, // 1e12
	{0x0000000000000000, 0x9184E72A00000000}, // 1e13
	{0x0000000000000000, 0xB5E620F480000000}, // 1e14
	{0x0000000000000000, 0xE35FA931A0000000}, // 1e15
	{0x0000000000000000, 0x8E1BC9BF04000000}, // 1e16
	{0x0000000000000000, 0xB1A2BC2EC5000000}, // 1e17
	{0x0000000000000000, 0xDE0B6B3A76400000}, // 1e18
	{0x0000000000000000, 0x8AC7230489E80000}, // 1e19
	{0x0000000000000000, 0xAD78EBC5AC620000}, // 1e20
	{0x0000000000000000, 0xD8D726B7177A8000}, // 1e21
	{0x0000000000000000, 0x878678326EAC9000}, // 1e22
	{0x0000000000000000, 0xA968163F0A57B400}, // 1e23
	{0x0000000000000000, 0xD3C21BCECCEDA100}, // 1e24
	{0x0000000000000000, 0x84595161401484A0}, // 1e25
	{0x0000000000000000, 0xA56FA5B99019A5C8}, // 1e26
	{0x0000000000000000, 0xCECB8F27F4200F3A}, // 1e27
	{0x4000000000000000, 0x813F3978F8940984}, // 1e28
	{0x5000000000000000, 0xA18F07D736B90BE5}, // 1e29
	{0xA400000000000000, 0xC9F2C9CD04674EDE}, // 1e30
	{0x4D00000000000000, 0xFC6F7C4045812296}, // 1e31
	{0xF020000000000000, 0x9DC5ADA82B70B59D}, // 1e32
	{0x6C28000000000000, 0xC5371912364CE305}, // 1e33
	{0xC732000000000000, 0xF684DF56C3E01BC6}, // 1e34
	{0x3C7F400000000000, 0x9A130B963A6C115C}, // 1e35
	{0x4B9F100000000000, 0xC097CE7BC90715B3}, // 1e36
	{0x1E86D40000000000, 0xF0BDC21ABB48DB20}, // 1e37
	{0x1314448000000000, 0x96769950B50D88F4}, // 1e38
	{0x17D955A000000000, 0xBC143FA4E250EB31}, // 1e39
	{0x5DCFAB0800000000, 0xEB194F8E1AE525FD}, // 1e40
	{0x5AA1CAE500000000, 0x92EFD1B8D0CF37BE}, // 1e41
	{0xF14A3D9E40000000, 0xB7ABC627050305AD}, // 1e42
	{0x6D9CCD05D0000000, 0xE596B7B0C643C719}, // 1e43
	{0xE4820023A2000000, 0x8F7E32CE7BEA5C6F}, // 1e44
	{0xDDA2802C8A800000, 0xB35DBF821AE4F38B}, // 1e45
	{0xD50B2037AD200000, 0xE0352F62A19E306E}, // 1e46
	{0x4526F422CC340000, 0x8C213D9DA502DE45}, // 1e47
	{0x9670B12B7F410000, 0xAF298D050E4395D6}, // 1e48
}

// digitRun counts the ASCII digits a little-endian-loaded chunk starts
// with, 0 to 8. A byte is a digit when its high nibble is 3 and adding 6
// does not carry into it (rules out ':'–'?'); the per-byte add carries out
// of a byte only above 0xF9, a non-digit, so it can disturb only bytes
// after the run.
func digitRun(chunk uint64) int {
	nonDigit := ((chunk & 0xF0F0F0F0F0F0F0F0) |
		(((chunk + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)) ^ 0x3333333333333333
	return bits.TrailingZeros64(nonDigit) >> 3
}

// pow10u holds 10^k for the k ≤ 8 digits one chunk contributes.
var pow10u = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// parseDigits evaluates the first k (1 to 8) digits of a chunk: shifted
// to its top and padded below with '0's, they are eight digits of the same
// value.
func parseDigits(chunk uint64, k int) uint64 {
	return parseEightDigits(chunk<<(64-8*k) | 0x3030303030303030>>(8*k))
}

// parseEightDigits evaluates eight ASCII digits (lowest-addressed byte =
// most significant digit) with three multiply-and-mask reductions: bytes →
// base-100 pairs → base-10⁴ quads → the full base-10⁸ value.
func parseEightDigits(chunk uint64) uint64 {
	chunk -= 0x3030303030303030
	pairs := (chunk * (1 + 10<<8) >> 8) & 0x00FF00FF00FF00FF
	quads := (pairs * (1 + 100<<16) >> 16) & 0x0000FFFF0000FFFF
	return quads * (1 + 10000<<32) >> 32
}
