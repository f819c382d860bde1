external poll_raw :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "c4_poll_stub"

external now_ns : unit -> (int[@untagged]) = "c4_now_ns_byte" "c4_now_ns" [@@noalloc]

let pollin = 1
let pollout = 2
let pollerr = 4
let readable re = re land pollin <> 0
let writable re = re land pollout <> 0
let errored re = re land pollerr <> 0

let poll ~fds ~events ~revents ~n ~timeout_ms =
  if n < 0 || n > Array.length fds || Array.length events < n
     || Array.length revents < n
  then invalid_arg "Poll.poll: bad n";
  poll_raw fds events revents n timeout_ms
