/* Cache prefetch hints for the store's lookups.

   A server holding a batch of requests knows every key it is about to
   look up before it looks up the first. Touching their table slots and
   value blocks first lets those cache misses overlap instead of paying
   for them one request at a time (MICA's batched prefetch).

   Both stubs only issue prefetch instructions: they never fault, never
   write, and read nothing but a block header. They are [noalloc] and
   cannot raise, so OCaml calls them without any runtime bookkeeping. */

#include <stdint.h>

#include <caml/mlvalues.h>

#define C4_CACHE_LINE 64

/* The lines holding slot [i] of a table: the key in [keys] and the
   value pointer in [vals]. */
value c4_prefetch_slot(value keys, value vals, intnat i)
{
  __builtin_prefetch((const value *)keys + i);
  __builtin_prefetch((const value *)vals + i);
  return Val_unit;
}

value c4_prefetch_slot_byte(value keys, value vals, value i)
{
  return c4_prefetch_slot(keys, vals, Long_val(i));
}

/* Every line of a bytes block, its header included. Only the header is
   read, for the block's size. */
value c4_prefetch_block(value b)
{
  uintptr_t p = (uintptr_t)Hp_val(b) & ~(uintptr_t)(C4_CACHE_LINE - 1);
  uintptr_t end = (uintptr_t)b + Bosize_val(b);
  for (; p < end; p += C4_CACHE_LINE) __builtin_prefetch((const void *)p);
  return Val_unit;
}
