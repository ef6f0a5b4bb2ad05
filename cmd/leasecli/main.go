// Command leasecli is an interactive client for the lease file server.
//
// Usage:
//
//	leasecli -addr 127.0.0.1:7025 -id ws1
//	leasecli -replicas 127.0.0.1:7025,127.0.0.1:7026,127.0.0.1:7027 -id ws1
//	leasecli -ring "0=127.0.0.1:7025;1=127.0.0.1:7125" -id ws1
//
// Commands (read from stdin):
//
//	ls <dir>            list a directory (cached under its binding lease)
//	cat <file>          print a file (cached under its data lease)
//	put <file> <text>   write a file through (may wait for lease clearance)
//	mkdir <dir>         create a directory
//	touch <file>        create an empty file
//	rm <path>           remove a file or empty directory
//	mv <old> <new>      rename
//	stat <path>         show attributes
//	extend              extend every held lease in one batch
//	metrics             show cache hit/miss counters
//	ring                show the routing table (with -ring)
//	quit
//
// With -ring the session routes every path operation across the
// replica groups of a sharded deployment (NOT_OWNER redirects steer
// stale routes); mv transparently moves the file between groups when
// source and destination hash to different groups.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"leases/internal/client"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// fsOps is the path-operation surface shared by a single session
// (client.Cache) and a sharded router (client.Router).
type fsOps interface {
	ReadDir(path string) ([]vfs.DirEntry, error)
	Read(path string) ([]byte, error)
	Write(path string, data []byte) error
	Mkdir(path string, perm vfs.Perm) (vfs.Attr, error)
	Create(path string, perm vfs.Perm) (vfs.Attr, error)
	Remove(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string) (vfs.Attr, error)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7025", "server address")
	replicas := flag.String("replicas", "", "comma-separated replica addresses in replica-ID order; enables master discovery and session failover (overrides -addr)")
	ringSpec := flag.String("ring", "", "sharded routing mode: ring spec \"[epoch@]id[*weight]=addr[,addr...];...\" (overrides -addr/-replicas)")
	id := flag.String("id", "cli", "client (cache) identity")
	flag.Parse()

	var ops fsOps
	var c *client.Cache
	var rt *client.Router
	var err error
	target := *addr
	switch {
	case *ringSpec != "":
		ring, perr := shard.Parse(*ringSpec)
		if perr != nil {
			log.Fatalf("leasecli: -ring: %v", perr)
		}
		rt, err = client.NewRouter(ring, client.Config{ID: *id, Reconnect: true})
		ops = rt
		target = fmt.Sprintf("%d-group ring (epoch %d)", len(ring.GroupIDs()), ring.Epoch)
	case *replicas != "":
		set := strings.Split(*replicas, ",")
		c, err = client.DialReplicas(client.Config{ID: *id, Reconnect: true, Replicas: set})
		ops = c
		target = *replicas
	default:
		c, err = client.Dial(*addr, client.Config{ID: *id})
		ops = c
	}
	if err != nil {
		log.Fatalf("leasecli: %v", err)
	}
	if c != nil {
		defer c.Close()
	} else {
		defer rt.Close()
	}
	fmt.Printf("connected to %s as %q; type 'help'\n", target, *id)

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		cmd := fields[0]
		arg := func(i int) string {
			if i < len(fields) {
				return fields[i]
			}
			return ""
		}
		var err error
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("ls cat put mkdir touch rm mv stat extend metrics ring quit")
		case "ls":
			var entries []vfs.DirEntry
			entries, err = ops.ReadDir(orRoot(arg(1)))
			for _, e := range entries {
				kind := "f"
				if e.IsDir {
					kind = "d"
				}
				fmt.Printf("%s %6d %s\n", kind, e.ID, e.Name)
			}
		case "cat":
			var data []byte
			data, err = ops.Read(arg(1))
			if err == nil {
				os.Stdout.Write(data)
				if len(data) > 0 && data[len(data)-1] != '\n' {
					fmt.Println()
				}
			}
		case "put":
			fmt.Println("(write-through: waits for conflicting leases to approve or expire)")
			err = ops.Write(arg(1), []byte(arg(2)))
		case "mkdir":
			_, err = ops.Mkdir(arg(1), vfs.DefaultPerm|vfs.WorldWrite)
		case "touch":
			_, err = ops.Create(arg(1), vfs.DefaultPerm|vfs.WorldWrite)
		case "rm":
			err = ops.Remove(arg(1))
		case "mv":
			err = ops.Rename(arg(1), arg(2))
		case "stat":
			var a vfs.Attr
			a, err = ops.Stat(orRoot(arg(1)))
			if err == nil {
				fmt.Printf("id=%d dir=%v size=%d owner=%s version=%d mod=%s\n",
					a.ID, a.IsDir, a.Size, a.Owner, a.Version, a.ModTime.Format("15:04:05.000"))
			}
		case "extend":
			if c == nil {
				fmt.Println("extend is per-session; unavailable in -ring mode")
				continue
			}
			err = c.ExtendAll()
			if err == nil {
				fmt.Printf("extended; %d leases held\n", c.HeldLeases())
			}
		case "metrics":
			if c == nil {
				fmt.Println("metrics are per-session; unavailable in -ring mode (try 'ring')")
				continue
			}
			m := c.Metrics()
			fmt.Printf("reads=%d hits=%d lookups=%d lookup-hits=%d writes=%d invalidations=%d leases=%d\n",
				m.Reads, m.ReadHits, m.Lookups, m.LookupHits, m.Writes, m.Invalidations, c.HeldLeases())
		case "ring":
			if rt == nil {
				fmt.Println("not in -ring mode")
				continue
			}
			fmt.Printf("%s  (redirects followed: %d)\n", rt.Ring().Format(), rt.Redirects())
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func orRoot(p string) string {
	if p == "" {
		return "/"
	}
	return p
}
