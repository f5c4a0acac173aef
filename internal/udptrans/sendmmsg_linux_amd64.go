package udptrans

const sysSendmmsg = 307 // package syscall, frozen, has no SYS_SENDMMSG on amd64
