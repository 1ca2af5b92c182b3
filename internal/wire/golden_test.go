package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"toposhot/internal/types"
)

// TestFrameGolden pins the bytes of one frame per message code. The round-trip
// tests would pass under any self-consistent codec; this one fails on any
// byte the codec moves.
func TestFrameGolden(t *testing.T) {
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 3, 4_000_000_000, 21000)
	tx.Value = 1 << 40
	tx.Data = []byte{0xde, 0xad, 0xbe, 0xef}
	bare := types.NewTransaction(types.AddressFromUint64(5), types.AddressFromUint64(6), 0, 1, 0)
	cases := []struct {
		name string
		msg  Msg
		hex  string
	}{
		{"status", Msg{Code: CodeStatus, Status: Status{ProtocolVersion: ProtocolVersion, NetworkID: 1337, ClientVersion: "geth-lite/golden"}}, "0000001600d54282053990676574682d6c6974652f676f6c64656e"},
		{"transactions", Msg{Code: CodeTransactions, Txs: []*types.Transaction{tx, bare}}, "0000007501f873f83f94ff51afd792fd5b2600000000000000000000000194fea35fafa5fab64d0000000000000000000000020384ee6b28008252088601000000000084deadbeeff194fc986f37dce7f79a00000000000000000000000594fbea1f0fedf4434900000000000000000000000680018252088080"},
		{"announce", Msg{Code: CodeNewPooledTransactionHashes, Hashes: []types.Hash{tx.Hash(), bare.Hash()}}, "0000004402f842a0ad4d1dbebbb1615d4e8ae78035587d09c23f915bf64f4563f6151e623afd5453a07e7000b26a11292f28e1e85029a5235e5bea35d8477112be9ec476b97a65ea0b"},
		{"request", Msg{Code: CodeGetPooledTransactions, Hashes: []types.Hash{tx.Hash()}}, "0000002203e1a0ad4d1dbebbb1615d4e8ae78035587d09c23f915bf64f4563f6151e623afd5453"},
		{"pooled", Msg{Code: CodePooledTransactions, Txs: []*types.Transaction{bare}}, "0000003304f2f194fc986f37dce7f79a00000000000000000000000594fbea1f0fedf4434900000000000000000000000680018252088080"},
		{"pooled-empty", Msg{Code: CodePooledTransactions}, "0000000104c0"},
		{"disconnect", Msg{Code: CodeDisconnect, Reason: "too many peers"}, "0000001005cf8e746f6f206d616e79207065657273"},
		{"disconnect-empty", Msg{Code: CodeDisconnect}, "0000000205c180"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, c.msg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.hex {
			t.Errorf("%s frame:\n got %s\nwant %s", c.name, got, c.hex)
		}
		if _, err := ReadMsg(&buf); err != nil {
			t.Errorf("%s frame does not read back: %v", c.name, err)
		}
	}
	// Disconnect's reason is optional on the way in.
	m, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 1, CodeDisconnect, 0xc0}))
	if err != nil || m.Reason != "" {
		t.Fatalf("reason-less disconnect: %+v, %v", m, err)
	}
}
