package replica

// Transmission budgets: a write's ship or a max-term raise is re-sent
// once, re-stamped with the current ballot, and a write short of a quorum
// then fails while it holds clearance on its datum, which keeps the datum
// live; a promotion's catch-up sync is re-sent while this replica is
// master, which must not serve without a quorum's merged state.
const (
	ShipTransmissions = 2
	WhileMaster       = 0
)

// Round is one replication exchange with the peers, counted to a
// quorum. Like Machine it is sans-IO: Node drives it over the mesh and
// the model checker over its fabric, sending each transmission to the
// peers Send names and counting answers through Count.
type Round struct {
	self    int
	counted []bool // by replica ID
	n, need int    // peers counted; quorum − 1 (this replica counts)
	sent    int
	budget  int // transmissions; WhileMaster: while master
}

// NewRound starts replica self's round in a set of replicas with a budget
// of transmissions (ShipTransmissions, WhileMaster, or 1: one try).
func NewRound(self, replicas, budget int) *Round {
	return &Round{self: self, counted: make([]bool, replicas), need: replicas / 2, budget: budget}
}

// Spent reports whether the round hands out no more transmissions: it is
// done or its budget is used up (WhileMaster: master is false).
func (r *Round) Spent(master bool) bool {
	return r.Done() || r.budget == WhileMaster && !master || r.budget != WhileMaster && r.sent >= r.budget
}

// Send hands out the next transmission unless the round is Spent: the
// peers it goes to, every one not yet counted and never this replica.
func (r *Round) Send(master bool) (to []int, ok bool) {
	if r.Spent(master) {
		return nil, false
	}
	r.sent++
	for id, c := range r.counted {
		if !c && id != r.self {
			to = append(to, id)
		}
	}
	return to, true
}

// Wants reports whether an answer from peer would count: the round is
// not done and peer is another replica not counted yet.
func (r *Round) Wants(peer int) bool {
	return !r.Done() && peer >= 0 && peer < len(r.counted) && peer != r.self && !r.counted[peer]
}

// Count counts peer's answer to any transmission if Wants does.
func (r *Round) Count(peer int) bool {
	if !r.Wants(peer) {
		return false
	}
	r.counted[peer] = true
	r.n++
	return true
}

// Done reports whether a quorum, this replica included, has counted.
func (r *Round) Done() bool { return r.n >= r.need }

// Counted is how many peers have counted, of Need; Sent how many
// transmissions the round has handed out.
func (r *Round) Counted() int { return r.n }
func (r *Round) Need() int    { return r.need }
func (r *Round) Sent() int    { return r.sent }

// CombineSync joins the replies a sync round counted into the form
// srvcore.Core.Merge takes: each reply's list, followed at sequence zero
// by every path another reply holds and it lacks. Merge settles a path
// only when all its entries agree, so a reply that lacks it must say so.
func CombineSync(replies [][]FileState) []FileState {
	var out []FileState
	for i, files := range replies {
		out = append(out, files...)
		listed := make(map[string]bool, len(files))
		for _, fs := range files {
			listed[fs.Path] = true
		}
		for j, other := range replies {
			for _, fs := range other {
				if j != i && !listed[fs.Path] {
					listed[fs.Path] = true
					out = append(out, FileState{Path: fs.Path})
				}
			}
		}
	}
	return out
}
