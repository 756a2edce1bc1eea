# Runs one bench_paper panel and byte-compares its stdout with the panel's
# golden. Registered as the figure_<ID> ctests (bench/CMakeLists.txt):
#
#   cmake -DBENCH=<bench_paper> -DID=<panel> -DSCALE=<factor>
#         -DGOLDEN=<golden file> -DACTUAL=<output file> -P compare_figure.cmake
#
# ACTUAL keeps the run's stdout whether or not it matches.

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${BENCH}" --figure "${ID}" --scale "${SCALE}"
                OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper --figure ${ID} --scale ${SCALE} failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "figure ${ID} moved: ${ACTUAL} differs from ${GOLDEN}")
endif()
