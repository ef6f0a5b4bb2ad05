package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"leases/internal/cluster"
	"leases/internal/server"
	"leases/internal/shard"
)

func TestParseFlags(t *testing.T) {
	const ringSpec = "2@0=127.0.0.1:7025;1=127.0.0.1:7035"
	ring, err := shard.Parse(ringSpec)
	if err != nil {
		t.Fatal(err)
	}
	// defaults is the member config of a bare command line.
	defaults := func() cluster.Config {
		return cluster.Config{
			Server: server.Config{
				Term: 10 * time.Second, WriteTimeout: time.Minute,
				Shard: server.ShardConfig{GroupID: -1},
			},
			ID: -1,
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		want func(*cluster.Config)
	}{
		{"single", []string{"-term", "5s", "-recovery", "6s", "-write-timeout", "0", "-maxterm-file", "/var/lib/leases/maxterm",
			"-installed-dirs", "/bin, /lib", "-installed-term", "20s", "-broadcast-every", "4s", "-quiet-after-write", "9s"},
			func(c *cluster.Config) {
				c.Server.Term, c.Server.RecoveryWindow, c.Server.WriteTimeout = 5*time.Second, 6*time.Second, 0
				c.Server.MaxTermPath = "/var/lib/leases/maxterm"
				c.Server.Class = server.ClassConfig{InstalledDirs: []string{"/bin", "/lib"},
					InstalledTerm: 20 * time.Second, BroadcastEvery: 4 * time.Second, QuietAfterWrite: 9 * time.Second}
			}},
		{"replicated", []string{"-replica-id", "1", "-peers", "127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102", "-allowance", "2s"},
			func(c *cluster.Config) {
				c.ID, c.Seed, c.Allowance = 1, 2, 2*time.Second
				c.Peers = []string{"127.0.0.1:7100", "127.0.0.1:7101", "127.0.0.1:7102"}
			}},
		{"sharded", []string{"-ring", ringSpec, "-group-id", "1"},
			func(c *cluster.Config) { c.Server.Shard = server.ShardConfig{GroupID: 1, Ring: ring} }},
	} {
		got, _, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := defaults()
		tc.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}

	// Each refusal is an error, from the flags or from building the
	// member, never an exit.
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"group without ring", []string{"-group-id", "0"}, "-group-id requires -ring"},
		{"group not in ring", []string{"-ring", ringSpec, "-group-id", "7"}, "-group-id 7 not in -ring spec"},
		{"replica without peers", []string{"-replica-id", "0"}, "-peers is empty"},
		{"replica id out of range", []string{"-replica-id", "3", "-peers", "a:1,b:2,c:3"}, "id 3 out of range for 3 peers"},
	} {
		cfg, _, err := parseFlags(tc.args)
		if err == nil {
			_, err = cluster.New(cfg)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
