// Command offline demonstrates disconnected operation (§IV-E): a mobile
// client loses connectivity, keeps reading and writing against its local
// cache (with snapshot listeners firing from latency-compensated local
// state), and reconciles automatically when the network returns.
package main

import (
	"context"
	"fmt"
	"log"

	"firestore/firestore"
	"firestore/internal/core"
	"firestore/internal/rules"
	"firestore/mobile"
)

func main() {
	ctx := context.Background()
	region := core.NewRegion(core.Config{Name: "demo"})
	defer region.Close()
	if _, err := region.CreateDatabase("todos"); err != nil {
		log.Fatal(err)
	}
	if err := region.SetRules("todos", `match /{rest=**} { allow read, write; }`); err != nil {
		log.Fatal(err)
	}

	// The device's client is the offline layer over a Server SDK client
	// that carries the end user's identity.
	sdk := firestore.NewUserClient(region, "todos", &rules.Auth{UID: "alice"})
	alice := mobile.NewClient(sdk)
	defer alice.Close()
	server := firestore.NewClient(region, "todos") // what the service holds

	// A listener over the todo list: fires immediately from local state.
	stop, err := alice.OnSnapshot(sdk.Collection("todos").Query(), func(s mobile.Snapshot) {
		fmt.Printf("snapshot: %d todo(s), fromCache=%v pendingWrites=%v\n",
			len(s.Docs), s.FromCache, s.HasPendingWrites)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	// Online write.
	alice.Set("/todos/buy-milk", map[string]any{"done": false})
	if err := alice.WaitForPendingWrites(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("-> wrote /todos/buy-milk while online")

	// The device loses connectivity. Writes keep working locally.
	alice.GoOffline()
	fmt.Println("-> went offline")
	alice.Set("/todos/walk-dog", map[string]any{"done": false})
	alice.Set("/todos/buy-milk", map[string]any{"done": true})
	d, _ := alice.Get(ctx, "/todos/buy-milk")
	fmt.Printf("offline read sees done=%v (pending writes: %d)\n",
		d.Data()["done"], alice.PendingWrites())

	// The server has not seen any of it.
	got, err := server.Doc("todos/walk-dog").Get(ctx)
	if err != nil {
		log.Fatal(err)
	}
	// (The line has always reported that the lookup came back empty.)
	fmt.Printf("server sees /todos/walk-dog while client offline: %v\n", !got.Exists())

	// Reconnect: the queue drains and the server converges.
	alice.GoOnline()
	fmt.Println("-> back online, reconciling")
	if err := alice.WaitForPendingWrites(ctx); err != nil {
		log.Fatal(err)
	}
	if got, err = server.Doc("todos/buy-milk").Get(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server now sees buy-milk done=%v\n", got.Data()["done"])
}
