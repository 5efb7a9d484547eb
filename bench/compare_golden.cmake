# Runs paper benches with UATM_BENCH_OUT pointed at a fresh
# directory and byte-compares every CSV they write with the
# committed goldens.  Manifests are not compared: they hold
# git_describe and absolute paths.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries>
#         -DGOLDEN_DIR=<bench/golden> -DOUT_DIR=<scratch dir>
#         -DBENCHES=<name;name;...> -P compare_golden.cmake

foreach(var BENCH_DIR GOLDEN_DIR OUT_DIR BENCHES)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_golden: ${var} is not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(bench IN LISTS BENCHES)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env "UATM_BENCH_OUT=${OUT_DIR}"
                "${BENCH_DIR}/${bench}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${bench} exited with '${rc}'\n${out}\n${err}")
    endif()
endforeach()

# file(GLOB) sorts its result, so equal lists mean the same files.
file(GLOB golden RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.csv")
file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.csv")
if(NOT golden STREQUAL written)
    message(FATAL_ERROR "the benches wrote [${written}], "
                        "the goldens are [${golden}]")
endif()

set(mismatched "")
foreach(csv IN LISTS golden)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${GOLDEN_DIR}/${csv}" "${OUT_DIR}/${csv}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        file(READ "${GOLDEN_DIR}/${csv}" want)
        file(READ "${OUT_DIR}/${csv}" got)
        message("${csv} differs from its golden\n"
                "--- golden\n${want}--- written\n${got}")
        list(APPEND mismatched "${csv}")
    endif()
endforeach()
if(mismatched)
    message(FATAL_ERROR "CSVs differ from bench/golden: ${mismatched}")
endif()
list(LENGTH golden count)
message("${count} CSVs match bench/golden")
