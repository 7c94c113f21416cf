//go:build !linux

package main

import (
	"errors"
	"net"
)

// refuseNewConnections is only implemented on Linux; elsewhere the
// listener closes with whatever its accept queue holds.
func refuseNewConnections(net.Listener) error { return errors.ErrUnsupported }
