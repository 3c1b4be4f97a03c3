/* Native machine: persistent-memory regions outside the OCaml heap.

   A region is an anonymous private mapping, handed to OCaml as a char
   bigarray whose custom block unmaps it when the GC finalizes it. The
   block is allocated without charging the mapping's size to the GC: a
   log of hundreds of MiB held as heap bytes set the major GC's pace
   against a heap it dominated. The pages are touched at creation, as
   zero-filling heap bytes does, so a log append never takes a
   first-touch page fault. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <string.h>
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
  /* kernels without MADV_POPULATE_WRITE refuse it: write the zeros */
  if (madvise(data, size, MADV_POPULATE_WRITE) != 0) memset(data, 0, size);
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
