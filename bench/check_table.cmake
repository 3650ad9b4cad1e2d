# cmake -DBENCH=<binary> -DEXPECTED=<file> -P check_table.cmake
#
# Runs BENCH and fails unless the rows of its markdown table (the lines
# that start with "|") equal, byte for byte, those in EXPECTED.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE got RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
file(READ ${EXPECTED} want)
string(REGEX MATCHALL "\n\\|[^\n]*" got_rows "\n${got}")
string(REGEX MATCHALL "\n\\|[^\n]*" want_rows "\n${want}")
list(JOIN got_rows "" got_rows)
list(JOIN want_rows "" want_rows)
if(NOT got_rows STREQUAL want_rows)
  message(FATAL_ERROR "table differs from ${EXPECTED}\n"
                      "got:${got_rows}\nwant:${want_rows}")
endif()
