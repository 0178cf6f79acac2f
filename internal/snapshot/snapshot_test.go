package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

func buildContainer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := NewEncoder(64)
	e.Int(42)
	e.F64(math.Pi)
	e.String("hello")
	e.Ints([]int{1, -2, 3})
	e.Bool(true)
	if err := w.Section("alpha", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("beta", []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("empty", nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer(t)
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Names(); len(got) != 3 || got[0] != "alpha" || got[1] != "beta" || got[2] != "empty" {
		t.Fatalf("names = %v", got)
	}
	pay, ok := c.Section("alpha")
	if !ok {
		t.Fatal("alpha section missing")
	}
	d := NewDecoder("alpha", pay)
	if got := d.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := d.Ints(); len(got) != 3 || got[1] != -2 {
		t.Errorf("Ints = %v", got)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining %d bytes", d.Remaining())
	}
	if _, ok := c.Section("gamma"); ok {
		t.Error("unexpected gamma section")
	}
}

// TestUnknownSectionSkipped pins the forward-compat rule: a reader
// that only knows some of the sections can still pull the ones it
// wants out of a container with extras.
func TestUnknownSectionSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("known", []byte("k"))
	w.Section("from-the-future", []byte("mystery bytes"))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	c, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if pay, ok := c.Section("known"); !ok || string(pay) != "k" {
		t.Fatalf("known section = %q, %v", pay, ok)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	data := buildContainer(t)
	data[8] = 0xFF // bump the version field
	_, err := Parse(data)
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrCorruptSnapshot) {
		t.Fatal("version mismatch must not read as corruption")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := buildContainer(t)

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] ^= 0xFF
		_, err := Parse(mut)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("payload flip carries section name", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		// Flip a byte inside the alpha payload (header is 12, section
		// header 14, name 5, payload starts at 31).
		mut[35] ^= 0x01
		_, err := Parse(mut)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section != "alpha" {
			t.Fatalf("err = %v, want CorruptError for alpha", err)
		}
		if !strings.Contains(err.Error(), "alpha") {
			t.Fatalf("message %q does not name the section", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		_, err := Parse(data[:len(data)-2])
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestCorruptSectionNameDetected flips every byte of every section
// name: the checksum covers the name, so a flipped byte fails with a
// typed error instead of renaming the section into one the reader
// skips.
func TestCorruptSectionNameDetected(t *testing.T) {
	data := buildContainer(t)
	at := 12
	for _, name := range []string{"alpha", "beta", "empty"} {
		nameLen := int(binary.LittleEndian.Uint16(data[at:]))
		payLen := int(binary.LittleEndian.Uint64(data[at+2:]))
		if got := string(data[at+14 : at+14+nameLen]); got != name {
			t.Fatalf("section at %d is %q, want %q", at, got, name)
		}
		for i := at + 14; i < at+14+nameLen; i++ {
			for _, bit := range []byte{0x01, 0x20, 0xFF} {
				mut := append([]byte(nil), data...)
				mut[i] ^= bit
				if _, err := Parse(mut); !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("%s name byte %d flipped by %#x: err = %v", name, i-at-14, bit, err)
				}
			}
		}
		at += 14 + nameLen + payLen
	}
	if at != len(data) {
		t.Fatalf("walked %d of %d bytes", at, len(data))
	}
}

// TestSnapshotReadsVersion1 pins the compatibility rule: containers
// written before names were checksummed, with a CRC over the payload
// alone, still parse.
func TestSnapshotReadsVersion1(t *testing.T) {
	var v1 []byte
	v1 = append(v1, magic[:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	for _, sec := range []struct{ name, payload string }{{"alpha", "first"}, {"beta", ""}} {
		v1 = binary.LittleEndian.AppendUint16(v1, uint16(len(sec.name)))
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(len(sec.payload)))
		v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE([]byte(sec.payload)))
		v1 = append(v1, sec.name...)
		v1 = append(v1, sec.payload...)
	}
	c, err := Parse(v1)
	if err != nil {
		t.Fatal(err)
	}
	if pay, ok := c.Section("alpha"); !ok || string(pay) != "first" {
		t.Fatalf("alpha = %q, %v", pay, ok)
	}
	if _, ok := c.Section("beta"); !ok {
		t.Fatal("beta section missing")
	}
	v1[12+14+5] ^= 0x01 // a payload byte still fails the checksum
	if _, err := Parse(v1); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("flipped version 1 payload: err = %v", err)
	}
}

// TestMutationNeverPanics is the satellite fuzz test: flip or truncate
// bytes at every position and assert the parser either succeeds or
// returns a typed error — never panics, never silently half-parses.
// Deterministic exhaustive sweep rather than random sampling: the
// container is small enough to try every single-byte mutation.
func TestMutationNeverPanics(t *testing.T) {
	data := buildContainer(t)

	check := func(t *testing.T, mut []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on mutated input: %v", r)
			}
		}()
		c, err := Parse(mut)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Parsed fine (mutation hit a spot CRC32 cannot distinguish or
		// the mutation was in skipped padding): decoding any section
		// must still be panic-free.
		for _, name := range c.Names() {
			pay, _ := c.Section(name)
			d := NewDecoder(name, pay)
			d.Int()
			d.F64()
			_ = d.String()
			d.Ints()
			d.Bool()
			_ = d.Err()
		}
	}

	for i := range data {
		for _, bit := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			check(t, mut)
		}
	}
	for n := 0; n <= len(data); n++ {
		check(t, append([]byte(nil), data[:n]...))
	}
}

// TestDecoderHugeLength pins the allocation cap: a length prefix far
// beyond the remaining bytes errors out instead of allocating.
func TestDecoderHugeLength(t *testing.T) {
	e := NewEncoder(16)
	e.Int(1 << 40) // claims a petabyte-scale slice
	d := NewDecoder("sec", e.Bytes())
	if v := d.Ints(); v != nil {
		t.Fatalf("Ints = %v, want nil", v)
	}
	if !errors.Is(d.Err(), ErrCorruptSnapshot) {
		t.Fatalf("err = %v", d.Err())
	}
	var ce *CorruptError
	if !errors.As(d.Err(), &ce) || ce.Section != "sec" {
		t.Fatalf("err = %v, want CorruptError for sec", d.Err())
	}
}

func TestFloatBitPatterns(t *testing.T) {
	e := NewEncoder(32)
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	e.F64(negZero)
	e.F64(nan)
	d := NewDecoder("f", e.Bytes())
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Errorf("negative zero bits lost: %x", math.Float64bits(got))
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("NaN payload lost: %x", math.Float64bits(got))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}
