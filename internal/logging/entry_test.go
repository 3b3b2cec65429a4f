package logging

import (
	"encoding/hex"
	"testing"

	"silo/internal/mem"
)

// The table-driven CRC must match the reference CRC-16/CCITT-FALSE
// check value ("123456789" -> 0x29B1) and the bit-serial definition.
func TestCRC16KnownAnswer(t *testing.T) {
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16 check value = %#04x, want 0x29b1", got)
	}
	bitSerial := func(b []byte) uint16 {
		crc := uint16(0xFFFF)
		for _, c := range b {
			crc ^= uint16(c) << 8
			for i := 0; i < 8; i++ {
				if crc&0x8000 != 0 {
					crc = crc<<1 ^ 0x1021
				} else {
					crc <<= 1
				}
			}
		}
		return crc
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i*37 + 11)
		if got, want := crc16(buf[:i+1]), bitSerial(buf[:i+1]); got != want {
			t.Fatalf("len %d: table crc %#04x != bit-serial %#04x", i+1, got, want)
		}
	}
}

// Known-answer vectors for the sealed on-media record layout. The
// round-trip tests cannot catch an Encode and DecodeImage that change
// together; these pin the bytes a recovery scan of an existing log
// region must keep parsing: every image kind, the flush bit, and
// addresses above 48 bits (masked off on media).
func TestSealKnownAnswer(t *testing.T) {
	cases := []struct {
		im  Image
		seq uint8
		hex string
	}{
		{Image{Kind: ImageUndo, TID: 3, TxID: 0x1234, Addr: 0x1234_5678_9AB8, Data: 0x0102030405060708}, 0,
			"08033412b89a785634120807060504030201000021"},
		{Image{Kind: ImageRedo, TID: 0xFE, TxID: 0xBEEF, Addr: 0x40, Data: 0xDEADBEEFCAFEF00D}, 7,
			"09feefbe4000000000000df0fecaefbeadde076342"},
		{Image{Kind: ImageCommit, TID: 1, TxID: 0xFFFF}, 255,
			"0a01ffff000000000000fff5bf"},
		{Image{Kind: ImageUndoRedo, TID: 9, TxID: 42, Addr: 0x7FF8, Data: 0x1111111111111111, Data2: 0xEEEEEEEEEEEEEEEE}, 128,
			"0b092a00f87f000000001111111111111111eeeeeeeeeeeeeeee80856c"},
		{Image{Kind: ImageUndo, FlushBit: true, TID: 2, TxID: 5, Addr: 0x1000, Data: 0xFF}, 1,
			"0c020500001000000000ff00000000000000018292"},
		{Image{Kind: ImageUndoRedo, FlushBit: true, TID: 0x80, TxID: 0x8001, Addr: 0xFFFF_8000_0000_0010,
			Data: 0x8000000000000001, Data2: 0x0123456789ABCDEF}, 42,
			"0f8001801000000000800100000000000080efcdab89674523012a79a2"},
		{Image{Kind: ImageCommit, FlushBit: true, TID: 0x7F, TxID: 0x0100, Addr: 0xFFFF_FFFF_FFFF_FFFF}, 200,
			"0e7f0001ffffffffffffc88c3d"},
		{Image{Kind: ImageRedo, TID: 4, TxID: 6, Addr: 0xABCD_0000_0000_0FF8, Data: 0x0A0B0C0D0E0F1011}, 3,
			"09040600f80f0000000011100f0e0d0c0b0a0334b0"},
	}
	for _, c := range cases {
		var buf [MaxSealedBytes]byte
		n := c.im.Seal(buf[:], c.seq)
		if got := hex.EncodeToString(buf[:n]); got != c.hex {
			t.Errorf("%v seq %d sealed to\n %s, want\n %s", c.im.Kind, c.seq, got, c.hex)
		}
		want, _ := hex.DecodeString(c.hex)
		im, sz, status := UnsealImage(want, c.seq)
		masked := c.im
		masked.Addr &= mem.AddrMask48
		if c.im.Kind == ImageCommit {
			masked.Data, masked.Data2 = 0, 0
		} else if c.im.Kind != ImageUndoRedo {
			masked.Data2 = 0
		}
		if status != SealOK || sz != len(want) || im != masked {
			t.Errorf("%v seq %d: unsealed %+v (%d B, status %d), want %+v (%d B)",
				c.im.Kind, c.seq, im, sz, status, masked, len(want))
		}
	}
}
