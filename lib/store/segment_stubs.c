/* Value reads for the store's segments (see store.ml, "Segments").
 *
 * - wqi_seg_map maps, read-only and shared, the first [len] bytes of a
 *   segment file: the bytes it held when the store opened.  The store
 *   owns the mapping and unmaps it at close (wqi_seg_unmap); the GC
 *   never sees it.  Its address travels to OCaml as an int, which
 *   holds any user-space address of the 64-bit targets OCaml 5 runs on.
 * - wqi_seg_copy copies [len] mapped bytes into a fresh string: a
 *   stored value read with no system call.
 * - wqi_seg_pread reads [len] bytes at [off] into a fresh string with
 *   pread(2), for the bytes appended after the mapping was made.  A
 *   short read raises End_of_file.
 *
 * None of them releases the runtime lock: the string they fill is an
 * OCaml block, which must not move while they write into it, and every
 * read is of page-cache bytes. */

#define _FILE_OFFSET_BITS 64

#include <errno.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

/* The mapping's address, or 0 when the file cannot be mapped (the
   store then preads every value). */
CAMLprim value wqi_seg_map(value fd, value len)
{
  void *p = mmap(NULL, (size_t) Long_val(len), PROT_READ, MAP_SHARED,
                 Int_val(fd), 0);
  return Val_long(p == MAP_FAILED ? 0 : (intnat) p);
}

CAMLprim value wqi_seg_unmap(value addr, value len)
{
  munmap((void *) Long_val(addr), (size_t) Long_val(len));
  return Val_unit;
}

CAMLprim value wqi_seg_copy(value addr, value off, value len)
{
  mlsize_t n = (mlsize_t) Long_val(len);
  value s = caml_alloc_string(n);
  if (n > 0)
    memcpy(Bytes_val(s), (const char *) Long_val(addr) + Long_val(off), n);
  return s;
}

CAMLprim value wqi_seg_pread(value fd, value off, value len)
{
  mlsize_t n = (mlsize_t) Long_val(len), got = 0;
  value s = caml_alloc_string(n);
  while (got < n) {
    ssize_t r = pread(Int_val(fd), Bytes_val(s) + got, n - got,
                      (off_t) Long_val(off) + (off_t) got);
    if (r > 0)
      got += (mlsize_t) r;
    else if (r == 0)
      caml_raise_end_of_file();
    else if (errno != EINTR)
      caml_raise_sys_error(caml_copy_string(strerror(errno)));
  }
  return s;
}
