// Package leases is a Go implementation of leases, the time-based
// fault-tolerant mechanism for distributed file cache consistency of
// Gray & Cheriton (SOSP 1989).
//
// A lease is a contract given by a file server to a caching client:
// during the lease term, the server must obtain the client's approval
// before the covered datum may be written, so the client may serve reads
// from its cache without any server communication. When the term
// expires, the contract lapses by the passage of physical time alone —
// so a crashed or unreachable client delays conflicting writes by at
// most the remaining term and never causes inconsistency. Short terms
// (around ten seconds for workstation file workloads) capture nearly all
// of the caching benefit while keeping failure delays small.
//
// The package offers three levels of entry:
//
//   - A deployable networked file service: NewServer and Dial give a
//     TCP lease file server and write-through caching client
//     (internal/server, internal/client) over a versioned in-memory file
//     store (internal/vfs).
//
//   - The transport-free protocol core: NewManager (server side) and
//     NewHolder (client side) for embedding leases into other systems —
//     every method takes explicit time, so the protocol runs identically
//     under test clocks, simulated networks, and production transports.
//
//   - The paper's evaluation apparatus: the analytic model of §3.1
//     (Model, VParams), workload generators (internal/trace), and the
//     trace-driven simulator (internal/tracesim) that regenerates every
//     figure and headline number in the paper; see EXPERIMENTS.md.
//
// # Quickstart
//
//	srv := leases.NewServer(leases.ServerConfig{Term: 10 * time.Second})
//	go srv.ListenAndServe("127.0.0.1:7025")
//	// ...
//	c, err := leases.Dial("127.0.0.1:7025", leases.ClientConfig{ID: "ws1"})
//	data, err := c.Read("/bin/latex") // first read fetches + takes a lease
//	data, err = c.Read("/bin/latex")  // served from cache, no server traffic
//
// See examples/ for complete programs.
package leases

import (
	"time"

	"leases/internal/analytic"
	"leases/internal/client"
	"leases/internal/core"
	"leases/internal/server"
	"leases/internal/vfs"
)

// Infinite is the lease term that never expires — the revised-Andrew
// callback baseline. FixedTerm(0) is the check-on-every-use baseline.
const Infinite = core.Infinite

// Core protocol types, for embedding leases into other systems.
type (
	// Manager is the server side of the lease protocol: the lease table
	// and write-deferral queue. See core.NewManager.
	Manager = core.Manager
	// Holder is the client side: the record of held leases and their
	// effective terms. See core.NewHolder.
	Holder = core.Holder
	// HolderConfig sets the client's timing assumptions (ε, delivery).
	HolderConfig = core.HolderConfig
	// ClientID names a caching client.
	ClientID = core.ClientID
	// WriteID identifies a deferred write.
	WriteID = core.WriteID
	// FixedTerm is the lease term a Manager grants: a time.Duration.
	FixedTerm = core.FixedTerm
	// InstalledSet implements the §4 installed-files optimization.
	InstalledSet = core.InstalledSet
	// Datum names one leasable unit: a file's contents or a directory's
	// name-to-file bindings.
	Datum = vfs.Datum
	// Attr describes a file or directory.
	Attr = vfs.Attr
	// Store is the versioned in-memory file store.
	Store = vfs.Store
)

// NewManager returns a server-side lease manager granting leases of the
// given term.
func NewManager(term time.Duration, opts ...core.ManagerOption) *Manager {
	return core.NewManager(term, opts...)
}

// NewHolder returns an empty client-side lease holder.
func NewHolder(cfg HolderConfig) *Holder { return core.NewHolder(cfg) }

// Networked deployment.
type (
	// Server is the TCP lease file server.
	Server = server.Server
	// ServerConfig parameterizes a server.
	ServerConfig = server.Config
	// Client is the write-through caching client.
	Client = client.Cache
	// ClientConfig parameterizes a client.
	ClientConfig = client.Config
	// ReadCall, WriteCall and ExtendCall are in-flight pipelined
	// operations: Client.StartRead / StartWrite / StartExtendAll issue
	// without waiting, the client's write coalescer batches the frames,
	// and Wait completes each one as its reply arrives (in any order).
	ReadCall   = client.ReadCall
	WriteCall  = client.WriteCall
	ExtendCall = client.ExtendCall
)

// NewServer creates a lease file server with an empty store.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Dial connects a caching client to a server.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	return client.Dial(addr, cfg)
}

// Analytic model (§3.1).
type (
	// Model holds the analytic model parameters (Table 1): N, R, W, S,
	// message times and the clock allowance ε.
	Model = analytic.Params
)

// VParams returns the V-system parameters of Table 2 (see DESIGN.md for
// the reconstruction).
func VParams() Model { return analytic.VParams() }

// ChooseTerm suggests a lease term for the given model parameters: zero
// when leasing cannot help (α ≤ 1), otherwise a small multiple of the
// break-even threshold clamped to [min, max]. This is the calculation a
// server performs when setting terms dynamically (§4).
func ChooseTerm(m Model, min, max time.Duration) time.Duration {
	th := m.TermThreshold()
	switch {
	case th < 0:
		return 0
	case th == 0:
		return max
	}
	term := 10*th + m.Delivery() + m.Eps
	if term < min {
		term = min
	}
	if term > max {
		term = max
	}
	return term
}
