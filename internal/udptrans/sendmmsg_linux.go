//go:build !amd64 && !386

package udptrans

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
