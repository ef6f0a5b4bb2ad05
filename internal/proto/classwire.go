package proto

import (
	"time"

	"leases/internal/vfs"
)

// InstalledWire is the payload of TInstalledRep: one snapshot of the
// installed-files class (§4.3). Generation changes whenever membership
// changes (promotion or drop-on-write demotion), so a client holding a
// stale snapshot can tell from a TBroadcastExt stamp alone that it must
// refetch. SentAt is the server's clock at encode time; the client
// anchors the covering lease at SentAt + Term − ε, exactly as it does
// for broadcast extensions.
type InstalledWire struct {
	Generation uint64
	Term       time.Duration
	SentAt     time.Time
	Data       []vfs.Datum
}

// EncodeInstalled appends an installed-class snapshot.
func (e *Enc) EncodeInstalled(w InstalledWire) *Enc {
	return e.U64(w.Generation).Dur(w.Term).Time(w.SentAt).EncodeData(w.Data)
}

// DecodeInstalled reads an installed-class snapshot.
func (d *Dec) DecodeInstalled() InstalledWire {
	return InstalledWire{
		Generation: d.U64(),
		Term:       d.Dur(),
		SentAt:     d.Time(),
		Data:       d.DecodeData(),
	}
}

// BroadcastExtWire is the payload of TBroadcastExt: the periodic O(1)
// renewal of the installed class. A client whose snapshot generation
// matches extends every installed datum it holds; on mismatch it
// refetches the class with TInstalled and, until the fresh snapshot
// arrives, simply stops treating the stale members as covered — safe,
// never stale.
type BroadcastExtWire struct {
	Generation uint64
	Term       time.Duration
	SentAt     time.Time
}

// EncodeBroadcastExt appends a broadcast-extension payload.
func (e *Enc) EncodeBroadcastExt(w BroadcastExtWire) *Enc {
	return e.U64(w.Generation).Dur(w.Term).Time(w.SentAt)
}

// DecodeBroadcastExt reads a broadcast-extension payload.
func (d *Dec) DecodeBroadcastExt() BroadcastExtWire {
	return BroadcastExtWire{
		Generation: d.U64(),
		Term:       d.Dur(),
		SentAt:     d.Time(),
	}
}
