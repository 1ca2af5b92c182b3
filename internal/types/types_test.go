package types

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestAddressRoundTrip: the seed comes back out of the address's low bytes.
func TestAddressRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 0x010203, math.MaxUint64} {
		a := AddressFromUint64(n)
		if a == (Address{}) {
			t.Fatalf("seed %#x minted the zero address", n)
		}
		if got := binary.BigEndian.Uint64(a[12:20]); got != n {
			t.Fatalf("seed %#x came back as %#x", n, got)
		}
	}
}

func TestAddressFromUint64Distinct(t *testing.T) {
	seen := make(map[Address]uint64)
	for i := uint64(0); i < 10000; i++ {
		a := AddressFromUint64(i)
		if prev, dup := seen[a]; dup {
			t.Fatalf("collision: %d and %d → %v", prev, i, a)
		}
		seen[a] = i
	}
}

func TestAddressFromUint64Deterministic(t *testing.T) {
	f := func(n uint64) bool {
		return AddressFromUint64(n) == AddressFromUint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashHexAndZero(t *testing.T) {
	for _, c := range []struct {
		h    Hash
		want string
	}{{Hash{}, "0x00000000…"}, {Hash{31: 0xab}, "0x00000000…"}, {Hash{0: 0xab, 3: 0x01}, "0xab000001…"}} {
		if s := c.h.String(); s != c.want {
			t.Fatalf("hex display form of %x = %s, want %s", c.h[:], s, c.want)
		}
	}
}

func TestTransactionHashMemoizedAndUnique(t *testing.T) {
	tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 100, 5)
	h1 := tx.Hash()
	h2 := tx.Hash()
	if h1 != h2 {
		t.Fatal("hash not stable")
	}
	// Any field change must change the hash.
	variants := []*Transaction{
		NewTransaction(AddressFromUint64(9), AddressFromUint64(2), 0, 100, 5),
		NewTransaction(AddressFromUint64(1), AddressFromUint64(9), 0, 100, 5),
		NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 1, 100, 5),
		NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 101, 5),
		NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 100, 6),
	}
	for i, v := range variants {
		if v.Hash() == h1 {
			t.Errorf("variant %d hash collided", i)
		}
	}
}

func TestTransactionHashQuick(t *testing.T) {
	f := func(fromSeed, toSeed, nonce, price, value uint64) bool {
		a := NewTransaction(AddressFromUint64(fromSeed), AddressFromUint64(toSeed), nonce, price, value)
		b := NewTransaction(AddressFromUint64(fromSeed), AddressFromUint64(toSeed), nonce, price, value)
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransactionCopyIndependent(t *testing.T) {
	tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 4, 5)
	tx.Data = []byte{1, 2, 3}
	cp := tx.Copy()
	cp.Data[0] = 9
	if tx.Data[0] == 9 {
		t.Fatal("copy shares data slice")
	}
	// A copy of an already hashed transaction starts with a fresh memo: once
	// mutated it must not keep reporting the original's digest.
	h := tx.Hash()
	cp = tx.Copy()
	if cp.Hashed() {
		t.Fatal("copy carries the original's hash memo")
	}
	cp.Nonce++
	if cp.Hash() == h {
		t.Fatal("mutated copy of a hashed transaction reports the original's digest")
	}
}

// TestEqualMatchesHash: Equal compares exactly the fields Hash digests. Every
// exported field of Transaction, changed alone, must flip both, so a field
// added to the struct and to only one of the two (or to neither) fails here
// by name.
func TestEqualMatchesHash(t *testing.T) {
	base := func() *Transaction {
		tx := NewDynamicFeeTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 400, 50, 6)
		tx.Data = []byte{1, 2, 3}
		return tx
	}
	ref := base()
	if !ref.Equal(base()) || !ref.Equal(ref) || ref.Hash() != base().Hash() {
		t.Fatal("two transactions of identical content differ")
	}
	check := func(field string, tx *Transaction) {
		t.Helper()
		if ref.Equal(tx) || tx.Equal(ref) {
			t.Errorf("Equal ignores %s", field)
		}
		if ref.Hash() == tx.Hash() {
			t.Errorf("Hash ignores %s", field)
		}
	}
	typ := reflect.TypeOf(Transaction{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		tx := base()
		v := reflect.ValueOf(tx).Elem().Field(i)
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Array: // Address
			v.Index(0).SetUint(v.Index(0).Uint() ^ 1)
		case reflect.Slice: // Data: content here, length below
			v.Index(0).SetUint(v.Index(0).Uint() ^ 1)
			longer := base()
			lv := reflect.ValueOf(longer).Elem().Field(i)
			lv.Set(reflect.Append(lv, reflect.Zero(lv.Type().Elem())))
			check(f.Name+" (length)", longer)
		default:
			t.Fatalf("field %s has kind %v: teach this test how to change it", f.Name, v.Kind())
		}
		check(f.Name, tx)
	}
}

// TestRunMembers: member k of a run is the transfer a measurement node mints
// one at a time (nonce Nonce+k, recipient ToSeq+k, legacy unless the run
// carries a tip), and Run.Equal agrees with Transaction.Equal on it and on
// every single-field change of it — TestEqualMatchesHash's walk, by name.
func TestRunMembers(t *testing.T) {
	from := NamespacedAddress(SpaceTopoShot, 7)
	for _, tip := range []uint64{0, 3} {
		r := &Run{From: from, Nonce: 1, Count: 5, Price: 400, Tip: tip, ToSpace: SpaceTopoShot, ToSeq: 8}
		for k := 0; k < r.Count; k++ {
			to := NamespacedAddress(SpaceTopoShot, 8+uint64(k))
			want := NewTransaction(from, to, 1+uint64(k), 400, 0)
			if tip > 0 {
				want = NewDynamicFeeTransaction(from, to, 1+uint64(k), 400, tip, 0)
			}
			if got := r.Tx(k); !got.Equal(want) || got.Hash() != want.Hash() || got.Fee() != r.Fee() {
				t.Fatalf("tip %d member %d = %v, want %v", tip, k, got, want)
			}
			if !r.Equal(k, want) || (k > 0 && r.Equal(k-1, want)) || (k+1 < r.Count && r.Equal(k+1, want)) {
				t.Fatalf("tip %d: Run.Equal does not single out member %d", tip, k)
			}
		}
		typ := reflect.TypeOf(Transaction{})
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tx := r.Tx(2)
			v := reflect.ValueOf(tx).Elem().Field(i)
			switch v.Kind() {
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Array:
				v.Index(0).SetUint(v.Index(0).Uint() ^ 1)
			case reflect.Slice:
				v.Set(reflect.ValueOf([]byte{0}))
			default:
				t.Fatalf("field %s has kind %v: teach this test how to change it", f.Name, v.Kind())
			}
			if r.Equal(2, tx) || r.Tx(2).Equal(tx) {
				t.Errorf("tip %d: a member differing in %s still compares equal", tip, f.Name)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { r.Equal(2, r.Tx(2)) }); allocs != 1 {
			t.Errorf("comparing against a member allocates %v objects beside the member itself", allocs-1)
		}
	}
}

func TestTransactionFee(t *testing.T) {
	tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 3, 0)
	if tx.Fee() != 3*TxGasTransfer {
		t.Fatalf("fee = %d, want %d", tx.Fee(), 3*TxGasTransfer)
	}
}

func TestBlockFullAndMinPrice(t *testing.T) {
	b := &Block{GasLimit: 2 * TxGasTransfer}
	if b.Full() {
		t.Fatal("empty block full")
	}
	if _, ok := b.MinGasPrice(); ok {
		t.Fatal("empty block has min price")
	}
	b.Txs = append(b.Txs,
		NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 50, 0),
		NewTransaction(AddressFromUint64(3), AddressFromUint64(4), 0, 20, 0),
	)
	b.GasUsed = 2 * TxGasTransfer
	if !b.Full() {
		t.Fatal("packed block not full")
	}
	min, ok := b.MinGasPrice()
	if !ok || min != 20 {
		t.Fatalf("min price = %d (%v), want 20", min, ok)
	}
}

// pinnedTxs are the transactions whose digests TestTransactionHashPinned
// hard-codes: a legacy transfer, a dynamic-fee transfer, and one carrying 100
// bytes of payload.
func pinnedTxs() []*Transaction {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	withData := NewTransaction(AddressFromUint64(5), AddressFromUint64(6), 9, 3*Gwei, 1)
	withData.Data = data
	return []*Transaction{
		NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 2*Gwei, 7),
		NewDynamicFeeTransaction(AddressFromUint64(3), AddressFromUint64(4), 0, 5*Gwei, Gwei/2, 11),
		withData,
	}
}

// TestTransactionHashPinned pins the digest bytes: transaction hashes key
// every pool and order SetBaseFee drops, Content and the checkpoint goldens,
// so the one-shot implementation must produce exactly what the streaming
// sha256 one did (the values below were computed with it).
func TestTransactionHashPinned(t *testing.T) {
	want := []string{
		"0xf1394a97d917b574d875734f863f8b403fbdebe93cb682172d122699d824c464",
		"0x109fe134786e9c1d29e061700aa6c78ff49393ffab67c23521c202c1b9c39adc",
		"0xc91cea09aa8ec12d049d9c03008289d2807f4b6a842794f41de4769422bdfa32",
	}
	for i, tx := range pinnedTxs() {
		h := tx.Hash()
		if got := "0x" + hex.EncodeToString(h[:]); got != want[i] {
			t.Errorf("tx %d: hash %s, want %s", i, got, want[i])
		}
	}
}

// TestTransactionHashAllocs: the digest itself is computed on the stack, so a
// first Hash call allocates exactly its 32-B memo, and a memo hit nothing.
func TestTransactionHashAllocs(t *testing.T) {
	for i, tx := range pinnedTxs() {
		allocs := testing.AllocsPerRun(100, func() {
			tx.hash = nil // fresh memo
			if tx.Hash() == (Hash{}) {
				t.Fatal("zero hash")
			}
		})
		if allocs != 1 {
			t.Errorf("tx %d: a first Hash call allocates %v objects, want 1 (the memo)", i, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { tx.Hash() }); allocs != 0 {
			t.Errorf("tx %d: a memoized Hash call allocates %v objects, want 0", i, allocs)
		}
	}
}

// BenchmarkTransactionHash times a cold digest (the memo is reset each
// iteration) of a plain transfer — what every flooded transaction pays once.
func BenchmarkTransactionHash(b *testing.B) {
	tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 2*Gwei, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Nonce, tx.hash = uint64(i), nil
		if tx.Hash() == (Hash{}) {
			b.Fatal("zero hash")
		}
	}
}

// TestTransactionSize: the transaction is the simulator's most numerous
// object — a census mints hundreds of thousands of futures — so its size class
// is its cost. At 120 B it allocates from the 128-B class; one more word would
// move every transaction into the 144-B one.
func TestTransactionSize(t *testing.T) {
	if got := unsafe.Sizeof(Transaction{}); got != 120 {
		t.Fatalf("sizeof(Transaction) = %d B, want 120 (the 128-B size class)", got)
	}
}

// TestTransactionIDIdentifiesTheObject: an ID is assigned once — by ID, never
// by AssignedID or Hash — differs between objects of equal content, a Copy
// included, and plays no part in Equal or Hash.
func TestTransactionIDIdentifiesTheObject(t *testing.T) {
	tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 4, 5)
	tx.Data = []byte{1, 2}
	tx.Hash()
	if got := tx.AssignedID(); got != 0 {
		t.Fatalf("AssignedID() = %d before any ID call, want 0", got)
	}
	id := tx.ID()
	if id == 0 || tx.ID() != id || tx.AssignedID() != id {
		t.Fatalf("ID() = %d then %d, AssignedID() = %d: want one non-zero value", id, tx.ID(), tx.AssignedID())
	}
	cp := tx.Copy()
	if cp.AssignedID() != 0 {
		t.Fatalf("copy starts with ID %d, want none", cp.AssignedID())
	}
	if !cp.Equal(tx) || cp.Hash() != tx.Hash() {
		t.Fatal("copy's content differs from the original's")
	}
	if cp.ID() == id {
		t.Fatalf("copy shares the original's ID %d", id)
	}
	if twin := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 3, 4, 5); twin.ID() == id || twin.ID() == cp.ID() {
		t.Fatal("a freshly built transaction reuses an ID")
	}
}

// TestTransactionIDConcurrent: goroutines racing on an object's first ID call
// all get the value that was installed. Run under -race, it also checks the
// accesses are synchronized.
func TestTransactionIDConcurrent(t *testing.T) {
	for round := 0; round < 50; round++ {
		tx := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), uint64(round), 4, 5)
		ids := make([]uint32, 8)
		var wg sync.WaitGroup
		for g := range ids {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ids[g] = tx.ID()
			}(g)
		}
		wg.Wait()
		for g, id := range ids {
			if id != tx.ID() {
				t.Fatalf("round %d: goroutine %d saw ID %d, the object has %d", round, g, id, tx.ID())
			}
		}
	}
}

// TestTransactionIDExhaustion: the counter stops at its last value rather
// than wrapping to IDs that live objects may still hold.
func TestTransactionIDExhaustion(t *testing.T) {
	saved := lastTxID.Load()
	defer lastTxID.Store(saved)
	lastTxID.Store(math.MaxUint32 - 1)
	if id := NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 0, 1, 0).ID(); id != math.MaxUint32 {
		t.Fatalf("last ID = %d, want %d", id, uint32(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ID() past the last value did not panic")
		}
		if got := lastTxID.Load(); got != math.MaxUint32 {
			t.Fatalf("counter moved to %d after exhaustion", got)
		}
	}()
	NewTransaction(AddressFromUint64(1), AddressFromUint64(2), 1, 1, 0).ID()
}
