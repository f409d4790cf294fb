package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"hybridsched"
)

// FuzzDaemonProtocol drives serveConn over net.Pipe with arbitrary
// request lines. The handler must never panic, and must answer every
// nonblank line with exactly one valid JSON reply carrying ok:true or a
// nonempty error, until a subscribe succeeds and the connection turns
// into a frame stream. The seeds are the protocol cases of
// main_test.go; under plain go test they run as regression cases.
func FuzzDaemonProtocol(f *testing.F) {
	for _, seed := range []string{
		`{"op":"offer","src":2,"dst":6,"bits":1500}` + "\n" + `{"op":"step"}` + "\n" + `{"op":"step"}` + "\n" +
			`{"op":"stats"}` + "\n" + `{"op":"snapshot"}` + "\n" + `{"op":"status"}`,
		`{"op":"subscribe","shard":0,"buffer":8}`,
		`{"op":"subscribe","buffer":1125899906842624}` + "\n" + `{"op":"stats"}`,
		`{"op":"offer","src":0,"dst":99,"bits":1}`,
		`{"op":"offer","src":-1,"dst":3,"bits":-5}`,
		`{"op":"offer","src":1,"dst":2,"bits":9223372036854775807}` + "\n" + `{"op":"offer","src":1,"dst":2,"bits":1}`,
		`{"op":"nope"}`,
		`{"op":"subscribe","shard":7}`,
		`{"op":"subscribe","policy":"sideways"}`,
		`{"op":"subscribe","shard":-1,"buffer":-3,"policy":"newest"}`,
		`{"op":"step","shard":99}` + "\n\n   \n" + `{"op":"stats"}`,
		`{"op":`,
		`not json`,
		`[1,2,3]`,
		`{"op":"offer","bits":1e400}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // the scanner's line limit is exercised elsewhere
		}
		d, err := newDaemon(hybridsched.ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
		if err != nil {
			t.Fatal(err)
		}
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.serveConn(srv)
		}()
		defer func() {
			cli.Close()
			d.Close()
			<-done
		}()
		cli.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(cli)
		for _, line := range bytes.Split(data, []byte("\n")) {
			if _, err := cli.Write(append(line, '\n')); err != nil {
				t.Fatalf("write %q: %v", line, err)
			}
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			reply, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("no reply to %q: %v", line, err)
			}
			var resp struct {
				OK    *bool  `json:"ok"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply to %q is not JSON: %q", line, reply)
			}
			if resp.OK == nil || *resp.OK == (resp.Error != "") {
				t.Fatalf("reply to %q carries neither ok:true nor an error: %q", line, reply)
			}
			var req request
			if json.Unmarshal(line, &req) == nil && req.Op == "subscribe" && *resp.OK {
				return // the connection is now a frame stream
			}
		}
	})
}
