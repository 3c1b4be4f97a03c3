/* Native machine: persistent-memory regions outside the OCaml heap.

   A region is an anonymous private mapping, handed to OCaml as a char
   bigarray whose custom block unmaps it when the GC finalizes it. The
   block is allocated without charging the mapping's size to the GC: a
   log of hundreds of MiB held as heap bytes set the major GC's pace
   against a heap it dominated. Creation touches no page, so a region
   costs memory only where it is written: native.ml populates each
   region a fixed step ahead of its highest store ([onll_region_populate]),
   so an append rarely takes a first-touch page fault, and a log whose
   capacity exceeds what it writes never holds the rest. Pages never
   written read as zeros. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <string.h>
#include <stdint.h>
#include <unistd.h>
#include <sys/mman.h>

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23 /* Linux 5.14 */
#endif

static void onll_region_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  munmap(b->data, b->dim[0]);
}

static struct custom_operations onll_region_ops = {
  "onll.native_region",
  onll_region_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

CAMLprim value onll_region_create(value vsize)
{
  intnat size = Long_val(vsize);
  void *data = mmap(NULL, size, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) caml_raise_out_of_memory();
  value v = caml_alloc_custom(&onll_region_ops,
                              SIZEOF_BA_ARRAY + sizeof(intnat), 0, 1);
  struct caml_ba_array *b = Caml_ba_array_val(v);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_CHAR | CAML_BA_C_LAYOUT | CAML_BA_MAPPED_FILE;
  b->proxy = NULL;
  b->dim[0] = size;
  return v;
}

/* Make [off, off + len) of a region resident, as a write fault would,
   without writing a byte: a store racing the call keeps its bytes. A
   kernel that refuses the call (before Linux 5.14) leaves the pages to
   fault in on first touch. The caller has checked the range; the domain
   lock is released meanwhile, so the other domains' collections need
   not wait for the page zeroing. */
CAMLprim value onll_region_populate(value r, value off, value len)
{
  static uintptr_t page = 0;
  if (page == 0) page = (uintptr_t)sysconf(_SC_PAGESIZE);
  uintptr_t lo = (uintptr_t)Caml_ba_data_val(r) + Long_val(off);
  uintptr_t hi = lo + Long_val(len);
  lo &= ~(page - 1);
  caml_enter_blocking_section();
  (void)madvise((void *)lo, hi - lo, MADV_POPULATE_WRITE);
  caml_leave_blocking_section();
  return Val_unit;
}

/* The bytes of a region resident in RAM, page by page ([mincore]); -1
   where the kernel cannot tell. */
CAMLprim value onll_region_resident(value r)
{
  static uintptr_t page = 0;
  if (page == 0) page = (uintptr_t)sysconf(_SC_PAGESIZE);
  struct caml_ba_array *b = Caml_ba_array_val(r);
  uintptr_t pages = ((uintptr_t)b->dim[0] + page - 1) / page;
  unsigned char vec[4096];
  intnat resident = 0;
  for (uintptr_t first = 0; first < pages; first += sizeof vec) {
    uintptr_t n = pages - first < sizeof vec ? pages - first : sizeof vec;
    if (mincore((char *)b->data + first * page, n * page, vec) != 0)
      return Val_long(-1);
    for (uintptr_t i = 0; i < n; i++) resident += vec[i] & 1;
  }
  return Val_long(resident * (intnat)page);
}

/* The copies in and out of a region; the caller has checked the
   ranges. Neither allocates, so neither lets the GC move [s]/[b]. */
CAMLprim value onll_region_store(value r, value off, value s, value len)
{
  memcpy((char *)Caml_ba_data_val(r) + Long_val(off), String_val(s),
         Long_val(len));
  return Val_unit;
}

CAMLprim value onll_region_load(value r, value off, value b, value len)
{
  memcpy(Bytes_val(b), (char *)Caml_ba_data_val(r) + Long_val(off),
         Long_val(len));
  return Val_unit;
}
