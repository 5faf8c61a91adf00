package parity

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

func TestNewHammingValidation(t *testing.T) {
	for _, bits := range []int{0, -64, 63, 100, 2048} {
		if _, err := NewHamming(bits); err == nil {
			t.Errorf("NewHamming(%d) accepted", bits)
		}
	}
	h := MustHamming(256)
	if h.CheckBits() != 10 { // 9 Hamming bits + overall parity for 256 data bits
		t.Errorf("CheckBits(256) = %d, want 10", h.CheckBits())
	}
	if MustHamming(64).CheckBits() != 8 {
		t.Error("Hamming(64) should need 8 check bits, matching SECDED (72,64)")
	}
	if h.Name() != "secded-266-256" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestMustHammingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHamming(63) did not panic")
		}
	}()
	MustHamming(63)
}

func TestHammingCleanRoundTrip(t *testing.T) {
	for _, dataBits := range []int{64, 128, 256, 512} {
		h := MustHamming(dataBits)
		rng := rand.New(rand.NewSource(int64(dataBits)))
		for trial := 0; trial < 50; trial++ {
			data := make([]uint64, dataBits/64)
			for i := range data {
				data[i] = rng.Uint64()
			}
			res := h.Decode(data, h.Encode(data))
			if res.Outcome != SECDEDClean {
				t.Fatalf("Hamming(%d): clean decode = %v", dataBits, res.Outcome)
			}
		}
	}
}

func TestHammingCorrectsEveryDataBit(t *testing.T) {
	h := MustHamming(256)
	rng := rand.New(rand.NewSource(21))
	data := make([]uint64, 4)
	for i := range data {
		data[i] = rng.Uint64()
	}
	check := h.Encode(data)
	for bit := 0; bit < 256; bit++ {
		data[bit/64] ^= 1 << uint(bit%64)
		res := h.Decode(data, check)
		if res.Outcome != SECDEDCorrectedData || res.DataBit != bit {
			t.Fatalf("bit %d: outcome %v, DataBit %d", bit, res.Outcome, res.DataBit)
		}
		data[bit/64] ^= 1 << uint(bit%64)
	}
}

func TestHammingCorrectsCheckBits(t *testing.T) {
	h := MustHamming(256)
	data := []uint64{1, 2, 3, 4}
	check := h.Encode(data)
	for bit := 0; bit < h.CheckBits(); bit++ {
		res := h.Decode(data, check^(1<<uint(bit)))
		if res.Outcome != SECDEDCorrectedCheck {
			t.Fatalf("check bit %d: outcome %v", bit, res.Outcome)
		}
	}
}

func TestHammingDetectsDoubleErrors(t *testing.T) {
	h := MustHamming(256)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		data := make([]uint64, 4)
		for i := range data {
			data[i] = rng.Uint64()
		}
		check := h.Encode(data)
		a, b := rng.Intn(256), rng.Intn(256)
		for b == a {
			b = rng.Intn(256)
		}
		data[a/64] ^= 1 << uint(a%64)
		data[b/64] ^= 1 << uint(b%64)
		if res := h.Decode(data, check); res.Outcome != SECDEDDoubleError {
			t.Fatalf("double flip (%d,%d): %v", a, b, res.Outcome)
		}
	}
}

func TestHammingAgreesWithSECDED64OnOutcomes(t *testing.T) {
	// The generic code at width 64 must classify exactly like the
	// specialized (72,64) implementation for data-bit errors.
	h := MustHamming(64)
	var s SECDED
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		w := rng.Uint64()
		nflips := 1 + rng.Intn(2)
		mask := uint64(0)
		for len(positions(mask)) < nflips {
			mask |= 1 << uint(rng.Intn(64))
		}
		gotG := h.Decode([]uint64{w ^ mask}, h.Encode([]uint64{w}))
		gotS := s.Decode(w^mask, s.Encode(w))
		if gotG.Outcome != gotS.Outcome {
			t.Fatalf("mask %#x: generic %v, specialized %v", mask, gotG.Outcome, gotS.Outcome)
		}
	}
}

func positions(w uint64) []int {
	var out []int
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// refLayout is the textbook layout the kernel's tables must reproduce:
// r Hamming check bits at the power-of-two positions, data bit i at the
// i-th remaining position counting from 1.
func refLayout(dataBits int) (r int, posOf []int) {
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	for pos := 1; len(posOf) < dataBits; pos++ {
		if pos&(pos-1) != 0 {
			posOf = append(posOf, pos)
		}
	}
	return r, posOf
}

// encodeRef is the bit-at-a-time encoder the word-parallel kernel
// replaced, kept as its oracle: XOR together the codeword positions of
// the set data bits, then append the overall parity.
func encodeRef(dataBits int, data []uint64) uint64 {
	r, posOf := refLayout(dataBits)
	var check uint64
	for i := 0; i < dataBits; i++ {
		if (data[i/64]>>uint(i%64))&1 != 0 {
			check ^= uint64(posOf[i])
		}
	}
	check &= (1 << uint(r)) - 1
	var total uint64
	for _, w := range data {
		total ^= uint64(bits.OnesCount64(w) & 1)
	}
	total ^= uint64(bits.OnesCount64(check) & 1)
	return check | total<<uint(r)
}

// decodeRef is the oracle decoder: re-encode, then classify the syndrome
// and the overall parity separately.
func decodeRef(dataBits int, data []uint64, check uint64) HammingResult {
	r, posOf := refLayout(dataBits)
	expected := encodeRef(dataBits, data)
	mask := uint64(1<<uint(r)) - 1
	syndrome := int((check ^ expected) & mask)
	var total uint64
	for _, w := range data {
		total ^= uint64(bits.OnesCount64(w) & 1)
	}
	total ^= uint64(bits.OnesCount64(check&(mask|1<<uint(r))) & 1)
	overallMismatch := total != 0

	switch {
	case syndrome == 0 && !overallMismatch:
		return HammingResult{Outcome: SECDEDClean, DataBit: -1}
	case overallMismatch:
		if syndrome == 0 || (syndrome&(syndrome-1)) == 0 {
			return HammingResult{Outcome: SECDEDCorrectedCheck, DataBit: -1}
		}
		for i, pos := range posOf {
			if pos == syndrome {
				return HammingResult{Outcome: SECDEDCorrectedData, DataBit: i}
			}
		}
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	default:
		return HammingResult{Outcome: SECDEDDoubleError, DataBit: -1}
	}
}

// hammingWidths are the widths the oracle tests and the fuzzer cover.
var hammingWidths = []int{64, 128, 256, 512, 1024}

// FuzzHammingMatchesRef holds the kernel to the oracle at any received
// state: for every width, arbitrary data and an arbitrary received check
// value, Encode and Decode agree with encodeRef and decodeRef.
func FuzzHammingMatchesRef(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{}, uint64(0))
	f.Add(uint8(2), uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(0x3ff))
	for sel, n := range hammingWidths {
		data := fuzzData(n/64, uint64(sel), nil)
		clean := encodeRef(n, data)
		f.Add(uint8(sel), uint64(sel), []byte{}, clean)
		f.Add(uint8(sel), uint64(sel), []byte{}, clean^1<<3)
	}
	f.Fuzz(func(t *testing.T, sel uint8, seed uint64, raw []byte, check uint64) {
		n := hammingWidths[int(sel)%len(hammingWidths)]
		h := MustHamming(n)
		data := fuzzData(n/64, seed, raw)
		if got, want := h.Encode(data), encodeRef(n, data); got != want {
			t.Fatalf("Hamming(%d).Encode(%#x) = %#x, oracle %#x", n, data, got, want)
		}
		if got, want := h.Decode(data, check), decodeRef(n, data, check); got != want {
			t.Fatalf("Hamming(%d).Decode(%#x, %#x) = %+v, oracle %+v", n, data, check, got, want)
		}
	})
}

// fuzzData fills words data words from raw (8 bytes a word) and then from
// a splitmix64 stream seeded by seed.
func fuzzData(words int, seed uint64, raw []byte) []uint64 {
	data := make([]uint64, words)
	for i := range data {
		if len(raw) >= 8 {
			data[i] = binary.LittleEndian.Uint64(raw)
			raw = raw[8:]
			continue
		}
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		data[i] = z ^ z>>31
	}
	return data
}

// TestHammingFlipsMatchRef flips every single codeword bit and every
// pair of codeword bits (data and check bits alike) of Hamming(64) and
// Hamming(256), and checks Decode against the oracle and against the
// SECDED contract: a single flip is corrected at the right place, a
// double flip is detected. It then decodes the clean data against every
// possible received check value.
func TestHammingFlipsMatchRef(t *testing.T) {
	for _, n := range []int{64, 256} {
		h := MustHamming(n)
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([]uint64, n/64)
		for i := range data {
			data[i] = rng.Uint64()
		}
		check := h.Encode(data)
		if want := encodeRef(n, data); check != want {
			t.Fatalf("Hamming(%d).Encode = %#x, oracle %#x", n, check, want)
		}
		codeBits := n + h.CheckBits()
		// flip toggles codeword bit b: data bits first, then check bits.
		flip := func(b int) {
			if b < n {
				data[b/64] ^= 1 << uint(b%64)
			} else {
				check ^= 1 << uint(b-n)
			}
		}
		decode := func(desc string) HammingResult {
			got, want := h.Decode(data, check), decodeRef(n, data, check)
			if got != want {
				t.Fatalf("Hamming(%d) %s: Decode %+v, oracle %+v", n, desc, got, want)
			}
			return got
		}
		for a := 0; a < codeBits; a++ {
			flip(a)
			res := decode("single flip")
			switch {
			case a < n && (res.Outcome != SECDEDCorrectedData || res.DataBit != a):
				t.Fatalf("Hamming(%d) data bit %d: %+v", n, a, res)
			case a >= n && res.Outcome != SECDEDCorrectedCheck:
				t.Fatalf("Hamming(%d) check bit %d: %+v", n, a-n, res)
			}
			for b := a + 1; b < codeBits; b++ {
				flip(b)
				if res := decode("double flip"); res.Outcome != SECDEDDoubleError {
					t.Fatalf("Hamming(%d) flips (%d,%d): %+v", n, a, b, res)
				}
				flip(b)
			}
			flip(a)
		}
		// Every received check value against the clean data: each
		// syndrome, including those past the last codeword position,
		// under both overall parities.
		clean := check
		for check = 0; check < 1<<uint(h.CheckBits()); check++ {
			decode("received check value")
		}
		check = clean
	}
}

// TestHamming64MatchesSECDED: the generic code at width 64 is the
// (72,64) SECDED code, check bit for check bit.
func TestHamming64MatchesSECDED(t *testing.T) {
	h := MustHamming(64)
	var s SECDED
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 100_000; i++ {
		w := rng.Uint64()
		if got, want := h.Encode([]uint64{w}), s.Encode(w); got != want {
			t.Fatalf("Hamming(64).Encode(%#x) = %#x, SECDED %#x", w, got, want)
		}
	}
}

// TestHammingCodesShared: codes are immutable, so every call for a width
// returns the same table-carrying value, also when the first calls race.
func TestHammingCodesShared(t *testing.T) {
	const callers = 8
	var got [callers][maxHammingWords]*Hamming
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := range got[g] {
				got[g][w] = MustHamming((w + 1) * 64)
			}
		}(g)
	}
	wg.Wait()
	for w := 0; w < maxHammingWords; w++ {
		n := (w + 1) * 64
		h, err := NewHamming(n)
		if err != nil {
			t.Fatal(err)
		}
		for g := range got {
			if got[g][w] != h {
				t.Fatalf("MustHamming(%d) built more than one code", n)
			}
		}
		if MustHamming(n) != h {
			t.Fatalf("NewHamming(%d) and MustHamming(%d) differ", n, n)
		}
	}
}
